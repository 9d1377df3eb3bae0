//! Wire-propagated causal trace context.
//!
//! Every frame on the KV and register wire paths carries a fixed 16-byte
//! [`TraceCtx`] right next to the routing fields (shard id, envelope head)
//! and under the frame MAC, so a Byzantine relay can no more forge a trace
//! than a payload. The context is deliberately tiny:
//!
//! | field    | bytes | meaning                                          |
//! |----------|-------|--------------------------------------------------|
//! | `id`     | 8     | trace id; `0` = unsampled, all span emission off |
//! | `op_seq` | 4     | low bits of the client's operation counter       |
//! | `phase`  | 1     | [`Phase`] discriminant stamped by the sender     |
//! | `hop`    | 1     | 0 at the client, +1 per process boundary         |
//! | reserved | 2     | must be zero; room for future flags              |
//!
//! Sampling is **head-based**: the decision is made once, at the client
//! that invokes the operation ([`TraceCtx::for_op`]), by hashing the
//! operation id against `TransportConfig::trace_sample` (permille). Every
//! downstream site then asks one branch — [`TraceCtx::is_sampled`] — before
//! doing any tracing work, so the always-on cost of the layer is one
//! compare plus the 16 wire bytes.
//!
//! The trace id is *derived*, not random: the same `(client, seq)` always
//! hashes to the same id, which is how the bench harness correlates a
//! checker violation (which names an `OpId`) back to the spans of the
//! offending operation without a lookup table.

use crate::codec::{BytesReader, Wire, WireError};
use crate::ids::ClientId;
use crate::msg::OpId;

/// Phase tag a sender stamps into the context before putting it on the
/// wire; names one edge of the client → server → client round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Client-side: the whole logical operation (root span).
    ClientOp = 0,
    /// Client-side: one RPC attempt against one server.
    Rpc = 1,
    /// Server-side: frame read + decode + MAC verification.
    ServerDecode = 2,
    /// Server-side: waiting on the shard group's mutex.
    MutexWait = 3,
    /// Server-side: protocol dispatch inside the group lock.
    Dispatch = 4,
    /// Server-side: reply sealed and queued on the connection outbox.
    Outbox = 5,
    /// Reply frame travelling back to the client.
    Reply = 6,
    /// Client-side: backoff sleep between retry passes.
    Backoff = 7,
}

impl Phase {
    /// All phases, in pipeline order (stable for schema dumps).
    pub const ALL: [Phase; 8] = [
        Phase::ClientOp,
        Phase::Rpc,
        Phase::ServerDecode,
        Phase::MutexWait,
        Phase::Dispatch,
        Phase::Outbox,
        Phase::Reply,
        Phase::Backoff,
    ];

    /// Stable snake_case name used in metric names and JSONL dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::ClientOp => "client_op",
            Phase::Rpc => "rpc",
            Phase::ServerDecode => "server_decode",
            Phase::MutexWait => "mutex_wait",
            Phase::Dispatch => "dispatch",
            Phase::Outbox => "outbox",
            Phase::Reply => "reply",
            Phase::Backoff => "backoff",
        }
    }

    /// Decodes a wire discriminant; unknown values come back as `None`
    /// (forward compatibility — an old reader skips spans it cannot name).
    pub fn from_u8(v: u8) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| *p as u8 == v)
    }
}

/// The compact causal context carried in every wire frame.
///
/// `Copy` and 16 bytes on the wire ([`TraceCtx::WIRE_LEN`]); see the module
/// docs for the layout and the sampling rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Trace id; `0` means unsampled and suppresses all span emission.
    pub id: u64,
    /// Low 32 bits of the client's operation counter.
    pub op_seq: u32,
    /// [`Phase`] discriminant stamped by the sender of this frame.
    pub phase: u8,
    /// Process-boundary hop count: 0 at the invoking client.
    pub hop: u8,
}

impl TraceCtx {
    /// Encoded size: 8 (id) + 4 (op_seq) + 1 (phase) + 1 (hop) + 2 reserved.
    pub const WIRE_LEN: usize = 16;

    /// The unsampled context: all-zero, one compare to skip tracing.
    pub const NONE: TraceCtx = TraceCtx {
        id: 0,
        op_seq: 0,
        phase: 0,
        hop: 0,
    };

    /// Whether this operation was head-sampled; every tracing site gates
    /// on this single branch.
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.id != 0
    }

    /// Deterministic trace id for an operation: same `(client, seq)` →
    /// same id, never zero. This is the correlation key between checker
    /// violations (which carry an [`OpId`]) and recorded spans.
    pub fn derive_id(op: &OpId) -> u64 {
        let client_word = match op.client {
            ClientId::Reader(r) => u64::from(r.0),
            ClientId::Writer(w) => 0x1_0000 | u64::from(w.0),
        };
        mix(client_word ^ mix(op.seq ^ 0x9E37_79B9_7F4A_7C15)) | 1
    }

    /// Head-based sampling decision plus root-context construction:
    /// returns [`TraceCtx::NONE`] unless the op's hash falls inside
    /// `sample_permille`/1000 (so `1000` traces everything, `0` nothing).
    pub fn for_op(op: &OpId, sample_permille: u16) -> TraceCtx {
        let id = TraceCtx::derive_id(op);
        let chosen = sample_permille >= 1000
            || (sample_permille > 0 && id % 1000 < u64::from(sample_permille));
        if !chosen {
            return TraceCtx::NONE;
        }
        TraceCtx {
            id,
            op_seq: op.seq as u32,
            phase: Phase::ClientOp as u8,
            hop: 0,
        }
    }

    /// Copy of this context re-stamped with `phase` (same id/seq/hop).
    #[inline]
    pub fn with_phase(self, phase: Phase) -> TraceCtx {
        TraceCtx {
            phase: phase as u8,
            ..self
        }
    }

    /// Copy of this context one process boundary later: `hop + 1`
    /// (saturating) and re-stamped with `phase`.
    #[inline]
    pub fn hopped(self, phase: Phase) -> TraceCtx {
        TraceCtx {
            phase: phase as u8,
            hop: self.hop.saturating_add(1),
            ..self
        }
    }
}

/// SplitMix64 finalizer — full-avalanche mixing for id derivation.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Wire for TraceCtx {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.id.encode_to(buf);
        self.op_seq.encode_to(buf);
        self.phase.encode_to(buf);
        self.hop.encode_to(buf);
        0u16.encode_to(buf); // reserved, must be zero
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        let ctx = TraceCtx {
            id: u64::decode_borrowed(r)?,
            op_seq: u32::decode_borrowed(r)?,
            phase: u8::decode_borrowed(r)?,
            hop: u8::decode_borrowed(r)?,
        };
        let _reserved = u16::decode_borrowed(r)?;
        Ok(ctx)
    }

    fn wire_len(&self) -> usize {
        TraceCtx::WIRE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ReaderId, WriterId};

    #[test]
    fn wire_layout_is_exactly_sixteen_bytes() {
        let ctx = TraceCtx {
            id: 0xDEAD_BEEF_0BAD_CAFE,
            op_seq: 42,
            phase: Phase::Dispatch as u8,
            hop: 3,
        };
        let mut buf = Vec::new();
        ctx.encode_to(&mut buf);
        assert_eq!(buf.len(), TraceCtx::WIRE_LEN);
        assert_eq!(ctx.wire_len(), TraceCtx::WIRE_LEN);
        let bytes = crate::buf::Bytes::from(buf);
        assert_eq!(TraceCtx::from_bytes(&bytes).unwrap(), ctx);
    }

    #[test]
    fn none_is_all_zero_and_unsampled() {
        let mut buf = Vec::new();
        TraceCtx::NONE.encode_to(&mut buf);
        assert_eq!(buf, vec![0u8; TraceCtx::WIRE_LEN]);
        assert!(!TraceCtx::NONE.is_sampled());
    }

    #[test]
    fn derived_ids_are_deterministic_distinct_and_nonzero() {
        let a = OpId::new(ReaderId(1), 7);
        let b = OpId::new(ReaderId(2), 7);
        let c = OpId::new(WriterId(1), 7);
        assert_eq!(TraceCtx::derive_id(&a), TraceCtx::derive_id(&a));
        assert_ne!(TraceCtx::derive_id(&a), TraceCtx::derive_id(&b));
        assert_ne!(
            TraceCtx::derive_id(&b),
            TraceCtx::derive_id(&c),
            "reader and writer with equal index must not collide"
        );
        for seq in 0..1000 {
            assert_ne!(TraceCtx::derive_id(&OpId::new(ReaderId(0), seq)), 0);
        }
    }

    #[test]
    fn sampling_respects_permille_bounds() {
        let op = OpId::new(ReaderId(3), 12);
        assert!(!TraceCtx::for_op(&op, 0).is_sampled(), "0 samples nothing");
        assert!(
            TraceCtx::for_op(&op, 1000).is_sampled(),
            "1000 samples everything"
        );
        // A mid-range rate samples a plausible fraction of a large op set.
        let hits = (0..10_000u64)
            .filter(|seq| TraceCtx::for_op(&OpId::new(ReaderId(0), *seq), 100).is_sampled())
            .count();
        assert!(
            (500..1500).contains(&hits),
            "100‰ sampled {hits}/10000, expected ≈1000"
        );
    }

    #[test]
    fn hopping_increments_and_restamps() {
        let op = OpId::new(WriterId(9), 1);
        let root = TraceCtx::for_op(&op, 1000);
        assert_eq!(root.hop, 0);
        assert_eq!(root.phase, Phase::ClientOp as u8);
        let at_server = root.hopped(Phase::Dispatch);
        assert_eq!(at_server.hop, 1);
        assert_eq!(at_server.phase, Phase::Dispatch as u8);
        assert_eq!(at_server.id, root.id, "hops never change the trace id");
        assert_eq!(
            root.with_phase(Phase::Rpc).hop,
            0,
            "with_phase keeps the hop"
        );
    }

    #[test]
    fn phase_names_roundtrip_and_stay_stable() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_u8(p as u8), Some(p));
        }
        assert_eq!(Phase::from_u8(200), None);
        assert_eq!(Phase::MutexWait.as_str(), "mutex_wait");
        assert_eq!(Phase::ClientOp.as_str(), "client_op");
    }
}
