//! Fuzz-style hardening of the wire codec: decoding attacker-controlled
//! bytes must never panic, never over-allocate, and always either produce
//! a value that re-encodes faithfully or return a structured error.
//!
//! The suite drives the properties with the workspace's deterministic
//! [`DetRng`] (shrinking-free, reproducible from the printed seed).

use safereg_common::buf::Bytes;
use safereg_common::codec::Wire;
use safereg_common::epoch::{ConfigStamp, EpochConfig};
use safereg_common::ids::{ReaderId, WriterId};
use safereg_common::msg::{ClientToServer, Envelope, Message, OpId, Payload, ServerToClient};
use safereg_common::rng::DetRng;
use safereg_common::tag::Tag;
use safereg_common::trace::TraceCtx;
use safereg_common::value::Value;

/// `data` with bytes 4..8 overwritten by the member count its length
/// implies, trimmed to that many 8-byte members: an `EpochConfig`
/// encoding whose fields are random but whose count is consistent.
fn with_member_count(data: &Bytes) -> Bytes {
    if data.len() < 8 {
        return data.clone();
    }
    let count = (data.len() - 8) / 8;
    let mut out = data[..8 + 8 * count].to_vec();
    out[4..8].copy_from_slice(&(count as u32).to_le_bytes());
    Bytes::from(out)
}

#[test]
fn arbitrary_bytes_never_panic_any_decoder() {
    let mut rng = DetRng::seed_from(0xC0DE_C0DE);
    for case in 0..2048u32 {
        let len = rng.index(256);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let data = Bytes::from(data);
        // Every decoder must be total over arbitrary input.
        let _ = ClientToServer::from_bytes(&data);
        let _ = ServerToClient::from_bytes(&data);
        let _ = Envelope::from_bytes(&data);
        let _ = Tag::from_bytes(&data);
        let _ = Value::from_bytes(&data);

        // Round-trip stability: whatever decodes must encode back to the
        // same bytes (the format has a canonical encoding).
        if let Ok(msg) = Message::from_bytes(&data) {
            assert_eq!(msg.to_bytes(), data, "case {case}");
        }

        // Frame metadata. Each is also fed an input shaped to decode, so
        // the `Ok` branch runs on most cases, not only on lucky lengths.
        for input in [data.clone(), data.slice(..len.min(ConfigStamp::WIRE_LEN))] {
            if let Ok(stamp) = ConfigStamp::from_bytes(&input) {
                assert_eq!(stamp.to_bytes(), input, "case {case}");
            }
        }
        for input in [data.clone(), data.slice(..len.min(TraceCtx::WIRE_LEN))] {
            if let Ok(ctx) = TraceCtx::from_bytes(&input) {
                // The two reserved trailing bytes are ignored on decode and
                // re-encode as zero.
                let mut want = input.to_vec();
                want[TraceCtx::WIRE_LEN - 2..].fill(0);
                assert_eq!(ctx.to_bytes().to_vec(), want, "case {case}");
            }
        }
        for input in [data.clone(), with_member_count(&data)] {
            if let Ok(cfg) = EpochConfig::from_bytes(&input) {
                // Decode sorts members and drops repeated ids, so the input
                // re-encodes to itself exactly when its ids strictly ascend.
                let ids: Vec<u16> = input[8..]
                    .chunks(8)
                    .map(|m| u16::from_le_bytes([m[0], m[1]]))
                    .collect();
                let canonical = ids.windows(2).all(|w| w[0] < w[1]);
                assert_eq!(cfg.to_bytes() == input, canonical, "case {case}");
            }
        }
    }
}

#[test]
fn truncations_of_valid_messages_fail_cleanly() {
    let mut rng = DetRng::seed_from(0x7AC0_57EE);
    for _ in 0..512 {
        let num = rng.next_u64();
        let msg = ServerToClient::DataResp {
            op: OpId::new(ReaderId(3), num),
            tag: Tag::new(num, WriterId(1)),
            payload: Payload::Full(Value::from("payload bytes")),
        };
        let bytes = msg.to_bytes();
        // Every strict prefix must fail, not just a sampled one.
        for cut in 0..bytes.len() {
            let prefix = bytes.slice(..cut);
            assert!(
                ServerToClient::from_bytes(&prefix).is_err(),
                "decode of {cut}-byte prefix unexpectedly succeeded"
            );
        }
    }
}

#[test]
fn bit_flips_never_roundtrip_to_a_different_op() {
    let mut rng = DetRng::seed_from(0x0F11_BB17);
    for _ in 0..1024 {
        let num = rng.next_u64();
        let msg = ClientToServer::QueryData {
            op: OpId::new(ReaderId(1), num),
        };
        let mut bytes = msg.to_bytes().to_vec();
        let idx = rng.index(bytes.len());
        let bit = rng.index(8) as u8;
        bytes[idx] ^= 1 << bit;
        let bytes = Bytes::from(bytes);
        // The flip either fails to decode or decodes to exactly the bytes
        // sent (no silent normalization that could confuse op matching).
        if let Ok(decoded) = ClientToServer::from_bytes(&bytes) {
            assert_eq!(decoded.to_bytes(), bytes);
        }
    }
}
