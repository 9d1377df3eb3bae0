//! The wire frame: length-prefixed, MAC-authenticated, zero-copy.
//!
//! Every byte the deployment puts on a socket has this layout, and this
//! module is the only code that knows it:
//!
//! ```text
//! u32 LE length | shard | trace | stamp | link? | key | envelope | HMAC
//! ```
//!
//! A [`KvFrame`] is one shard- and key-addressed [`Envelope`] together
//! with the metadata that rides under the same MAC: the sender's causal
//! [`TraceCtx`] (always present — [`TraceCtx::NONE`] when unsampled — so
//! the layout never depends on sampling), its [`ConfigStamp`] (the epoch
//! fingerprint a server checks before dispatching, so a Byzantine network
//! cannot splice a frame from one epoch into another) and, on attestable
//! replies, the server's [`ChainLink`]. The MAC is keyed by the pair key
//! of the envelope's *claimed* endpoints — a forger who lacks that key
//! cannot produce a frame that verifies, which is exactly the
//! authenticated point-to-point channel the paper's model assumes (§II-A).
//!
//! # Zero-copy discipline
//!
//! Sealing never materializes the frame: [`Envelope::encode_parts`] splits
//! the encoding into a small serialized head and an O(1) clone of the
//! payload's [`Bytes`] tail, the MAC is streamed over both parts, and
//! [`SealedKv::write_to`] hands prefix, head, tail and MAC to the socket
//! as one vectored write (the reactor does the same for a whole outbox
//! from [`SealedKv::parts`]). Opening borrows: [`read_frame`] returns
//! the payload as [`Bytes`] and [`KvFrame::parse`] decodes key and value
//! as O(1) slices of it. Any payload byte a decode does copy lands on the
//! [`wire.bytes_copied`](names::WIRE_BYTES_COPIED) counter, which
//! therefore stays at zero on this path.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::{Arc, OnceLock};

use safereg_common::buf::Bytes;
use safereg_common::codec::{payload_bytes_copied, BytesReader, Wire, WireError, MAX_FIELD_LEN};
use safereg_common::epoch::ConfigStamp;
use safereg_common::msg::Envelope;
use safereg_common::shard::ShardId;
use safereg_common::trace::TraceCtx;
use safereg_crypto::auth::{AuthCodec, AuthError};
use safereg_crypto::chain::ChainLink;
use safereg_crypto::keychain::KeyChain;
use safereg_crypto::sha256::DIGEST_LEN;
use safereg_obs::metrics::Counter;
use safereg_obs::names;

/// Room a frame needs above its largest legal payload field: shard id,
/// trace context, config stamp, chain link, key, envelope head and MAC.
const FRAME_OVERHEAD: usize = 64 << 10;

/// Largest frame any reader accepts: a maximal legal value
/// ([`MAX_FIELD_LEN`]) plus [`FRAME_OVERHEAD`]. The blocking reader, the
/// reactor and the chaos proxy all check their length prefix against this
/// one bound through [`frame_len`].
pub const MAX_FRAME: usize = MAX_FIELD_LEN + FRAME_OVERHEAD;

/// Most sealed frames a host coalesces into one vectored write when it
/// drains a connection's reply outbox; batch sizes land in the
/// `transport.batch.frames` histogram.
pub const MAX_BATCH_FRAMES: usize = 64;

/// Errors while reading or authenticating frames.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The peer announced an oversized frame.
    TooLarge {
        /// Claimed length.
        claimed: usize,
    },
    /// The payload failed to decode.
    Codec(WireError),
    /// The MAC did not verify for the claimed endpoints.
    Auth(AuthError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::TooLarge { claimed } => write!(f, "frame of {claimed} bytes refused"),
            FrameError::Codec(e) => write!(f, "malformed frame: {e}"),
            FrameError::Auth(e) => write!(f, "authentication failure: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Decodes a frame's length prefix, refusing anything above [`MAX_FRAME`]
/// before a single byte is allocated for it.
///
/// # Errors
///
/// [`FrameError::TooLarge`] past the ceiling.
pub fn frame_len(prefix: [u8; 4]) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge { claimed: len });
    }
    Ok(len)
}

/// Drives `Write::write_vectored` to completion across short writes. A
/// zero-length vectored write becomes [`ErrorKind::WriteZero`].
fn write_all_vectored<W: Write>(w: &mut W, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    // Drop leading empty buffers so an all-empty input is not a WriteZero.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame, returning its payload (MAC included) as an immutable
/// [`Bytes`] buffer every decoded field then borrows from.
///
/// # Errors
///
/// Propagates socket errors; refuses frames larger than [`MAX_FRAME`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Bytes, FrameError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let mut payload = vec![0u8; frame_len(prefix)?];
    r.read_exact(&mut payload)?;
    Ok(Bytes::from(payload))
}

fn bytes_copied_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| safereg_obs::global().counter(names::WIRE_BYTES_COPIED))
}

/// One shard- and key-addressed message with its MAC-covered metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvFrame {
    /// The register group the key hashes to.
    pub shard: ShardId,
    /// The sender's causal trace context.
    pub trace: TraceCtx,
    /// The sender's epoch fingerprint.
    pub stamp: ConfigStamp,
    /// Accountability attestation: servers attach a response-chain link to
    /// every attestable reply; requests and admin/epoch replies carry
    /// `None`. Self-authenticating under the server's audit key, so it
    /// stays convincing once lifted out of the frame as evidence.
    pub link: Option<ChainLink>,
    /// The key the envelope's register operation addresses.
    pub key: Bytes,
    /// The protocol message and its endpoints.
    pub env: Envelope,
}

impl KvFrame {
    /// Splits the encoding into a metadata head and the envelope's trailing
    /// payload (an O(1) slice of the value being shipped, when the message
    /// carries one).
    fn encode_parts(&self) -> (Vec<u8>, Bytes) {
        let (env_head, tail) = self.env.encode_parts();
        let link_len = 1 + self.link.as_ref().map_or(0, |_| ChainLink::WIRE_LEN);
        let mut head = Vec::with_capacity(
            10 + TraceCtx::WIRE_LEN
                + ConfigStamp::WIRE_LEN
                + link_len
                + self.key.len()
                + env_head.len(),
        );
        self.shard.encode_to(&mut head);
        self.trace.encode_to(&mut head);
        self.stamp.encode_to(&mut head);
        self.link.encode_to(&mut head);
        self.key.encode_to(&mut head);
        head.extend_from_slice(&env_head);
        (head, tail.unwrap_or_default())
    }

    fn decode(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(KvFrame {
            shard: ShardId::decode_borrowed(r)?,
            trace: TraceCtx::decode_borrowed(r)?,
            stamp: ConfigStamp::decode_borrowed(r)?,
            link: Option::<ChainLink>::decode_borrowed(r)?,
            key: Bytes::decode_borrowed(r)?,
            env: Envelope::decode_borrowed(r)?,
        })
    }

    /// Decodes a frame payload as [`read_frame`] returned it, **without**
    /// verifying its MAC — what a keyless relay can learn about a frame.
    /// Key and value come out as O(1) slices of `sealed`.
    ///
    /// # Errors
    ///
    /// [`FrameError::Auth`] when too short to hold a MAC,
    /// [`FrameError::Codec`] for malformed or trailing bytes.
    pub fn parse(sealed: &Bytes) -> Result<KvFrame, FrameError> {
        if sealed.len() < DIGEST_LEN {
            return Err(FrameError::Auth(AuthError::TooShort { len: sealed.len() }));
        }
        let body = sealed.slice(..sealed.len() - DIGEST_LEN);
        let copied_before = payload_bytes_copied();
        let mut r = BytesReader::new(&body);
        let frame = KvFrame::decode(&mut r);
        // Global delta: a concurrent copying decode elsewhere can only
        // inflate it, never hide a copy — safe for a "must be zero" gate.
        let copied = payload_bytes_copied() - copied_before;
        if copied > 0 {
            bytes_copied_counter().add(copied);
        }
        let frame = frame.map_err(FrameError::Codec)?;
        if !r.is_empty() {
            return Err(FrameError::Codec(WireError::TrailingBytes {
                count: r.remaining(),
            }));
        }
        Ok(frame)
    }

    /// Verifies `sealed` (the buffer this frame was parsed from) under the
    /// pair key of the frame's claimed endpoints.
    ///
    /// # Errors
    ///
    /// [`FrameError::Auth`] on a forged, corrupted or mis-keyed frame.
    pub fn verify(&self, chain: &KeyChain, sealed: &Bytes) -> Result<(), FrameError> {
        AuthCodec::new(chain.pair_key(self.env.src, self.env.dst))
            .open(sealed.as_ref())
            .map(|_| ())
            .map_err(FrameError::Auth)
    }

    /// [`parse`](Self::parse) then [`verify`](Self::verify): the frame is
    /// authentic on `Ok`.
    ///
    /// # Errors
    ///
    /// As [`parse`](Self::parse) and [`verify`](Self::verify).
    pub fn open(chain: &KeyChain, sealed: &Bytes) -> Result<KvFrame, FrameError> {
        let frame = KvFrame::parse(sealed)?;
        frame.verify(chain, sealed)?;
        Ok(frame)
    }
}

/// A [`KvFrame`] sealed for its link: length prefix, metadata head,
/// zero-copy payload tail, and the streaming MAC over head and tail. The
/// parts stay separate so the frame is written vectored and never
/// concatenated.
#[derive(Debug, Clone)]
pub struct SealedKv {
    prefix: [u8; 4],
    head: Vec<u8>,
    tail: Bytes,
    mac: [u8; DIGEST_LEN],
}

impl SealedKv {
    /// Seals `frame` under the pair key of its envelope's endpoints.
    pub fn seal(chain: &KeyChain, frame: &KvFrame) -> SealedKv {
        let (head, tail) = frame.encode_parts();
        let mac = AuthCodec::new(chain.pair_key(frame.env.src, frame.env.dst))
            .mac_of_parts(&[&head, tail.as_ref()]);
        let len = head.len() + tail.len() + DIGEST_LEN;
        SealedKv {
            prefix: (len as u32).to_le_bytes(),
            head,
            tail,
            mac,
        }
    }

    /// Bytes the frame occupies on the wire, length prefix included.
    pub fn wire_len(&self) -> usize {
        4 + self.head.len() + self.tail.len() + DIGEST_LEN
    }

    /// The four wire parts in order: prefix, head, tail, MAC.
    pub fn parts(&self) -> [&[u8]; 4] {
        [&self.prefix, &self.head, self.tail.as_ref(), &self.mac]
    }

    /// Writes the frame as one vectored write (prefix, head, tail, MAC),
    /// never concatenating the parts.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write_all_vectored(w, &mut self.parts().map(IoSlice::new))?;
        w.flush()
    }

    /// Materializes the complete wire bytes contiguously — for load
    /// generators that pre-seal a request once and replay it, and for
    /// tests. The serving path never calls this.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        self.parts().concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
    use safereg_common::msg::{ClientToServer, Message, OpId, Payload};
    use safereg_common::tag::Tag;
    use safereg_common::value::Value;

    fn frame_of(msg: ClientToServer, from: impl Into<ClientId>) -> KvFrame {
        KvFrame {
            shard: ShardId(3),
            trace: TraceCtx::NONE,
            stamp: ConfigStamp {
                epoch: 2,
                digest: 0x00D1_6E57,
            },
            link: None,
            key: Bytes::copy_from_slice(b"k"),
            env: Envelope::to_server(from.into(), ServerId(0), msg),
        }
    }

    fn query() -> KvFrame {
        frame_of(
            ClientToServer::QueryData {
                op: OpId::new(ReaderId(1), 7),
            },
            ReaderId(1),
        )
    }

    fn put(value: Value) -> KvFrame {
        frame_of(
            ClientToServer::PutData {
                op: OpId::new(WriterId(0), 1),
                tag: Tag::new(1, WriterId(0)),
                payload: Payload::Full(value),
            },
            WriterId(0),
        )
    }

    /// The sealed payload as a reader would see it (prefix stripped).
    fn payload_of(sealed: &SealedKv) -> Bytes {
        Bytes::from(sealed.to_wire_bytes()).slice(4..)
    }

    #[test]
    fn length_check_accepts_at_the_ceiling_and_rejects_above() {
        // A maximal legal value plus its real head and MAC must fit…
        let value = Value::from("v");
        let sealed = SealedKv::seal(&KeyChain::from_master_seed(b"seed"), &put(value.clone()));
        let maximal = MAX_FIELD_LEN + (sealed.wire_len() - 4 - value.len());
        assert_eq!(frame_len((maximal as u32).to_le_bytes()).unwrap(), maximal);
        // …the ceiling itself is accepted…
        assert_eq!(
            frame_len((MAX_FRAME as u32).to_le_bytes()).unwrap(),
            MAX_FRAME
        );
        // …and one byte more is refused before anything is allocated.
        assert!(matches!(
            frame_len((MAX_FRAME as u32 + 1).to_le_bytes()),
            Err(FrameError::TooLarge { claimed }) if claimed == MAX_FRAME + 1
        ));
        let mut cursor = std::io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn vectored_write_survives_short_writes() {
        /// A writer that accepts one byte per call.
        struct OneByte(Vec<u8>);
        impl Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                self.0.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = OneByte(Vec::new());
        let parts: [&[u8]; 4] = [b"", b"ab", b"", b"cde"];
        write_all_vectored(&mut w, &mut parts.map(IoSlice::new)).unwrap();
        assert_eq!(w.0, b"abcde");
    }

    #[test]
    fn sealed_frames_roundtrip_through_write_and_read() {
        let chain = KeyChain::from_master_seed(b"seed");
        let (a, b) = (query(), put(Value::from("v")));
        let (sa, sb) = (SealedKv::seal(&chain, &a), SealedKv::seal(&chain, &b));
        let mut wire = Vec::new();
        for sealed in [&sa, &sb, &sa] {
            sealed.write_to(&mut wire).unwrap();
        }
        assert_eq!(wire.len(), 2 * sa.wire_len() + sb.wire_len());
        assert_eq!(&wire[..sa.wire_len()], &sa.to_wire_bytes()[..]);
        let mut cursor = std::io::Cursor::new(wire);
        for want in [&a, &b, &a] {
            let sealed = read_frame(&mut cursor).unwrap();
            assert_eq!(&KvFrame::open(&chain, &sealed).unwrap(), want);
        }
    }

    #[test]
    fn sealing_shares_and_opening_borrows_the_payload_buffer() {
        let chain = KeyChain::from_master_seed(b"seed");
        let value = Value::from(vec![7u8; 4096]);
        let sealed = SealedKv::seal(&chain, &put(value.clone()));
        // Encode-once: the sealed tail aliases the value's allocation.
        assert_eq!(
            sealed.tail.as_ref().as_ptr(),
            value.bytes().as_ref().as_ptr()
        );

        let payload = payload_of(&sealed);
        let before = payload_bytes_copied();
        let back = KvFrame::open(&chain, &payload).unwrap();
        assert_eq!(payload_bytes_copied(), before, "open must not memcpy");
        match back.env.msg {
            Message::ToServer(ClientToServer::PutData {
                payload: Payload::Full(v),
                ..
            }) => {
                let start = payload.as_ref().as_ptr() as usize;
                let at = v.bytes().as_ref().as_ptr() as usize;
                assert!((start..start + payload.len()).contains(&at));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_needs_no_key_but_open_does() {
        let chain = KeyChain::from_master_seed(b"seed");
        let other = KeyChain::from_master_seed(b"other");
        let payload = payload_of(&SealedKv::seal(&chain, &query()));
        assert_eq!(KvFrame::parse(&payload).unwrap(), query());
        assert!(matches!(
            KvFrame::open(&other, &payload),
            Err(FrameError::Auth(_))
        ));
        assert!(matches!(
            KvFrame::parse(&payload.slice(..DIGEST_LEN - 1)),
            Err(FrameError::Auth(AuthError::TooShort { .. }))
        ));
    }

    #[test]
    fn every_mac_covered_byte_is_tamper_evident() {
        // Shard, trace, stamp, link flag, key and envelope all sit under
        // the MAC: flipping any byte must be rejected, never silently
        // mis-routed or mis-attributed.
        let chain = KeyChain::from_master_seed(b"seed");
        let mut frame = query();
        frame.trace = TraceCtx {
            id: 99,
            op_seq: 1,
            phase: 0,
            hop: 0,
        };
        let clean = payload_of(&SealedKv::seal(&chain, &frame)).to_vec();
        for byte in 0..clean.len() {
            let mut tampered = clean.clone();
            tampered[byte] ^= 0x40;
            assert!(
                KvFrame::open(&chain, &Bytes::from(tampered)).is_err(),
                "flipped byte {byte} must not verify"
            );
        }
    }

    #[test]
    fn spoofed_source_fails_authentication() {
        // A malicious relay re-labels a frame as coming from another
        // client; the MAC was made under the original pair key and fails.
        let chain = KeyChain::from_master_seed(b"seed");
        let genuine = payload_of(&SealedKv::seal(&chain, &query()));
        let mut forged = query();
        forged.env.src = ClientId::Reader(ReaderId(5)).into();
        let (mut bytes, _) = forged.encode_parts();
        bytes.extend_from_slice(&genuine.as_ref()[genuine.len() - DIGEST_LEN..]);
        assert!(matches!(
            KvFrame::open(&chain, &Bytes::from(bytes)),
            Err(FrameError::Auth(_))
        ));
    }

    #[test]
    fn trace_and_link_ride_under_the_mac() {
        use safereg_crypto::chain::{LinkKind, ResponseChain};
        let chain = KeyChain::from_master_seed(b"seed");
        let mut frame = query();
        frame.trace = TraceCtx {
            id: 0xABCD_EF01_2345_6789,
            op_seq: 7,
            phase: safereg_common::trace::Phase::Rpc as u8,
            hop: 1,
        };
        frame.link = Some(ResponseChain::new(&chain, ServerId(0), 1).append(
            OpId::new(ReaderId(1), 7),
            LinkKind::PutAck,
            11,
            Tag::new(1, WriterId(0)),
            13,
        ));
        let back = KvFrame::open(&chain, &payload_of(&SealedKv::seal(&chain, &frame))).unwrap();
        assert_eq!(back, frame);
    }
}
