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
//! replies, the server's [`ChainLink`]. The MAC is keyed by the link key
//! of the envelope's *claimed* endpoints, taken from a
//! [`KeyRing`](safereg_crypto::keychain::KeyRing) — a forger who lacks
//! that key cannot produce a frame that verifies, which is exactly the
//! authenticated point-to-point channel the paper's model assumes (§II-A).
//!
//! # The MAC covers `head ‖ SHA-256(tail)`
//!
//! The frame body (everything between length prefix and MAC) is a *head*
//! — metadata and envelope up to and including the payload's u32 length —
//! then a *tail*, the payload bytes, empty for messages without one. The
//! MAC is `HMAC(k_link, head ‖ SHA-256(tail))`, an empty tail giving the
//! constant SHA-256 of the empty string. The wire layout is unchanged from
//! when the MAC covered `head ‖ tail`; a frame MACed that way is refused.
//! Why this authenticates every byte:
//! - the MAC input is `head ‖ 32-byte digest`, so its length fixes where
//!   the head ends and the digest starts;
//! - the head carries the tail's u32 length, under the MAC;
//! - so two distinct frames share a MAC input only with equal heads, hence
//!   equally long tails, whose SHA-256 digests collide;
//! - the receiver MACs the head bytes it received, never a re-encoding.
//!
//! So a process hashes a tail once however many frames carry it: a
//! client put MACs n short heads over one digest of its value, and a
//! replica keeps a `PutData`'s digest with the entry it stores and seals
//! (and attests) the replies returning that entry over it ([`TailDigest`]).
//!
//! # Zero-copy discipline
//!
//! Sealing never materializes the frame: [`Envelope::encode_parts`] splits
//! the encoding into a small serialized head and an O(1) clone of the
//! payload's [`Bytes`] tail, the MAC is streamed over the head and the
//! tail's digest, and [`SealedKv::write_to`] hands prefix, head, tail and
//! MAC to the socket as one vectored write (the reactor does the same for
//! a whole outbox from [`SealedKv::parts`]). Opening borrows:
//! [`read_frame`] returns the payload as [`Bytes`] and [`KvFrame::parse`]
//! runs the codec's one decoder over it, so key and value come out as O(1)
//! slices of the received buffer and no payload byte is copied.

use std::io::{ErrorKind, IoSlice, Read, Write};

use safereg_common::buf::Bytes;
use safereg_common::codec::{BytesReader, Wire, WireError, MAX_FIELD_LEN};
use safereg_common::epoch::ConfigStamp;
use safereg_common::msg::Envelope;
use safereg_common::shard::ShardId;
use safereg_common::trace::TraceCtx;
use safereg_crypto::auth::AuthError;
use safereg_crypto::chain::ChainLink;
use safereg_crypto::hmac::HmacSha256;
use safereg_crypto::keychain::KeyChain;
use safereg_crypto::sha256::{Sha256, DIGEST_LEN, EMPTY_DIGEST};

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
        let mut r = BytesReader::new(&body);
        let frame = KvFrame::decode(&mut r).map_err(FrameError::Codec)?;
        if !r.is_empty() {
            return Err(FrameError::Codec(WireError::TrailingBytes {
                count: r.remaining(),
            }));
        }
        Ok(frame)
    }

    /// Verifies `sealed` (the buffer this frame was parsed from) under
    /// `link`, the keyed MAC state of the frame's claimed endpoints
    /// (`ring.link(env.src, env.dst)` of a `KeyRing`), and returns the
    /// digest of its tail — the one pass over the tail that opening costs.
    ///
    /// # Errors
    ///
    /// [`FrameError::Auth`] on a forged, corrupted or mis-keyed frame.
    pub fn verify(&self, link: &HmacSha256, sealed: &Bytes) -> Result<TailDigest, FrameError> {
        let tail_len = self.env.msg.tail().map_or(0, Bytes::len);
        let Some(split) = sealed.len().checked_sub(DIGEST_LEN + tail_len) else {
            return Err(FrameError::Auth(AuthError::BadMac));
        };
        let body_len = split + tail_len;
        let tail = TailDigest::of(sealed.slice(split..body_len));
        let mut mac = link.clone();
        mac.update(&sealed[..split]);
        mac.update(tail.digest());
        if mac.finalize_matches(&sealed[body_len..]) {
            Ok(tail)
        } else {
            Err(FrameError::Auth(AuthError::BadMac))
        }
    }

    /// [`parse`](Self::parse), then [`verify`](Self::verify) under a link
    /// key derived for this frame (serving paths keep a `KeyRing`):
    /// authentic on `Ok`.
    ///
    /// # Errors
    ///
    /// As [`parse`](Self::parse) and [`verify`](Self::verify).
    pub fn open(chain: &KeyChain, sealed: &Bytes) -> Result<KvFrame, FrameError> {
        let frame = KvFrame::parse(sealed)?;
        frame.verify(&one_shot_link(chain, &frame.env), sealed)?;
        Ok(frame)
    }
}

/// The keyed MAC state for `env`'s link, derived afresh: the one-shot
/// [`KvFrame::open`] and [`SealedKv::seal`] pay [`KeyChain::pair_key`] and
/// the keying on every call, as serving paths never do.
fn one_shot_link(chain: &KeyChain, env: &Envelope) -> HmacSha256 {
    HmacSha256::new(chain.pair_key(env.src, env.dst).as_bytes())
}

/// The SHA-256 of a frame tail, kept with an O(1) clone of the tail. The
/// clone keeps the buffer alive, so equal address and length mean equal
/// content: [`covers`](Self::covers) is an identity check.
#[derive(Debug, Clone)]
pub struct TailDigest {
    tail: Bytes,
    digest: [u8; DIGEST_LEN],
}

impl TailDigest {
    /// Hashes `tail`: one SHA-256 pass (none when it is empty).
    pub fn of(tail: Bytes) -> TailDigest {
        let digest = if tail.is_empty() {
            EMPTY_DIGEST
        } else {
            Sha256::digest(&tail)
        };
        TailDigest { tail, digest }
    }

    /// SHA-256 of the tail.
    pub fn digest(&self) -> &[u8; DIGEST_LEN] {
        &self.digest
    }

    /// Whether `tail` is the buffer this digest was taken of (or both are
    /// empty).
    pub fn covers(&self, tail: &[u8]) -> bool {
        tail.len() == self.tail.len() && (tail.is_empty() || tail.as_ptr() == self.tail.as_ptr())
    }
}

/// A [`KvFrame`] sealed for its link: length prefix, metadata head,
/// zero-copy payload tail, and the MAC over the head and the tail's
/// digest. The parts stay separate so the frame is written vectored and
/// never concatenated.
#[derive(Debug, Clone)]
pub struct SealedKv {
    prefix: [u8; 4],
    head: Vec<u8>,
    tail: Bytes,
    mac: [u8; DIGEST_LEN],
}

impl SealedKv {
    /// [`seal_with`](Self::seal_with) under a link key derived for this
    /// frame (serving paths keep a `KeyRing`), hashing the tail.
    pub fn seal(chain: &KeyChain, frame: &KvFrame) -> SealedKv {
        SealedKv::seal_with(&one_shot_link(chain, &frame.env), frame, &mut None)
    }

    /// Seals `frame` under `link`, the keyed MAC state of its envelope's
    /// endpoints (`ring.link(env.src, env.dst)` of a `KeyRing`), reusing
    /// `tail` when it covers the frame's tail and otherwise replacing it
    /// with the digest of a non-empty tail.
    pub fn seal_with(
        link: &HmacSha256,
        frame: &KvFrame,
        tail: &mut Option<TailDigest>,
    ) -> SealedKv {
        let (head, body) = frame.encode_parts();
        let digest = match tail {
            _ if body.is_empty() => EMPTY_DIGEST,
            Some(memo) if memo.covers(&body) => memo.digest,
            _ => tail.insert(TailDigest::of(body.clone())).digest,
        };
        let mut mac = link.clone();
        mac.update(&head);
        mac.update(&digest);
        let len = head.len() + body.len() + DIGEST_LEN;
        SealedKv {
            prefix: (len as u32).to_le_bytes(),
            head,
            tail: body,
            mac: mac.finalize(),
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
    use safereg_crypto::auth::AuthCodec;

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
        let back = KvFrame::open(&chain, &payload).unwrap();
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
        // Shard, trace, stamp, link flag, key, envelope and — through its
        // digest — every tail byte sit under the MAC: flipping any byte
        // must be rejected, never silently mis-routed or mis-attributed.
        let chain = KeyChain::from_master_seed(b"seed");
        let trace = TraceCtx {
            id: 99,
            op_seq: 1,
            phase: 0,
            hop: 0,
        };
        let value: Vec<u8> = (0..300u16).map(|i| i as u8).collect();
        for mut frame in [query(), put(Value::from(value))] {
            frame.trace = trace;
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
    }

    /// `(head, tail, mac)` of a sealed frame as a receiver splits it.
    fn split(sealed: &SealedKv) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let [_, head, tail, mac] = sealed.parts();
        (head.to_vec(), tail.to_vec(), mac.to_vec())
    }

    #[test]
    fn a_lie_in_the_tail_length_is_refused() {
        // Shorten the tail by one byte and the length prefix with it: the
        // frame still parses, but the MAC covered the true length.
        let chain = KeyChain::from_master_seed(b"seed");
        let (mut head, tail, mac) = split(&SealedKv::seal(&chain, &put(Value::from("value"))));
        let at = head.len() - 4;
        head[at..].copy_from_slice(&4u32.to_le_bytes());
        let forged = Bytes::from([&head[..], &tail[..4], &mac[..]].concat());
        assert!(KvFrame::parse(&forged).is_ok(), "the lie is well-formed");
        assert!(matches!(
            KvFrame::open(&chain, &forged),
            Err(FrameError::Auth(AuthError::BadMac))
        ));
    }

    #[test]
    fn a_tail_spliced_under_an_identical_head_is_refused() {
        let chain = KeyChain::from_master_seed(b"seed");
        let (head_a, _, mac_a) = split(&SealedKv::seal(&chain, &put(Value::from("aaaa"))));
        let (head_b, tail_b, _) = split(&SealedKv::seal(&chain, &put(Value::from("bbbb"))));
        assert_eq!(head_a, head_b, "equal-length values share a head");
        let spliced = Bytes::from([&head_a[..], &tail_b[..], &mac_a[..]].concat());
        assert!(matches!(
            KvFrame::open(&chain, &spliced),
            Err(FrameError::Auth(AuthError::BadMac))
        ));
    }

    #[test]
    fn a_frame_maced_over_its_whole_tail_is_refused() {
        // The rule before tails were digested: HMAC(head ‖ tail).
        let chain = KeyChain::from_master_seed(b"seed");
        for frame in [query(), put(Value::from("value"))] {
            let (head, tail, _) = split(&SealedKv::seal(&chain, &frame));
            let key = chain.pair_key(frame.env.src, frame.env.dst);
            let old = AuthCodec::new(key).mac_of_parts(&[&head, &tail]);
            let sealed = Bytes::from([&head[..], &tail[..], &old[..]].concat());
            assert!(
                matches!(
                    KvFrame::open(&chain, &sealed),
                    Err(FrameError::Auth(AuthError::BadMac))
                ),
                "{frame:?}"
            );
        }
    }

    #[test]
    fn coded_and_empty_tails_roundtrip() {
        use safereg_common::msg::{CodedElement, ServerToClient};
        let chain = KeyChain::from_master_seed(b"seed");
        let coded = Payload::Coded(CodedElement {
            index: 2,
            value_len: 30,
            data: Bytes::from(vec![5u8; 10]),
        });
        let op = OpId::new(ReaderId(1), 7);
        let mut reply = query();
        reply.env = Envelope::to_client(
            ServerId(0),
            ReaderId(1).into(),
            ServerToClient::DataResp {
                op,
                tag: Tag::new(1, WriterId(0)),
                payload: coded.clone(),
            },
        );
        let mut coded_put = put(Value::initial());
        if let Message::ToServer(ClientToServer::PutData { payload, .. }) = &mut coded_put.env.msg {
            *payload = coded;
        }
        for frame in [put(Value::initial()), coded_put, reply, query()] {
            let sealed = payload_of(&SealedKv::seal(&chain, &frame));
            assert_eq!(KvFrame::open(&chain, &sealed).unwrap(), frame);
        }
    }

    #[test]
    fn a_put_hashes_its_value_once_for_every_replica() {
        let chain = KeyChain::from_master_seed(b"seed");
        let mut ring = safereg_crypto::keychain::KeyRing::new(&chain);
        let value = Value::from(vec![1u8; 1000]);
        let mut tail = None;
        for dst in 0..5 {
            let mut frame = put(value.clone());
            frame.env.dst = ServerId(dst).into();
            let link = ring.link(frame.env.src, frame.env.dst);
            let sealed = SealedKv::seal_with(link, &frame, &mut tail);
            let memo = tail.as_ref().expect("the value's digest is kept");
            assert!(memo.covers(value.as_bytes()));
            let received = payload_of(&sealed);
            let parsed = KvFrame::parse(&received).unwrap();
            assert_eq!(
                parsed.verify(link, &received).unwrap().digest(),
                memo.digest()
            );
        }
        // A query has no tail and leaves the slot alone.
        let link = ring.link(query().env.src, query().env.dst);
        SealedKv::seal_with(link, &query(), &mut tail);
        assert!(tail.unwrap().covers(value.as_bytes()));
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

    /// Parses `sealed` and, when it parses, checks the frame re-encodes to
    /// the parsed body. The trace context's two reserved bytes are ignored
    /// on decode and re-encode as zero, so they are zeroed before comparing.
    fn parse_reencodes(sealed: &[u8]) -> bool {
        let Ok(frame) = KvFrame::parse(&Bytes::copy_from_slice(sealed)) else {
            return false;
        };
        let mut body = sealed[..sealed.len() - DIGEST_LEN].to_vec();
        let trace_end = 2 + TraceCtx::WIRE_LEN; // after the u16 shard id
        body[trace_end - 2..trace_end].fill(0);
        let (mut joined, tail) = frame.encode_parts();
        joined.extend_from_slice(&tail);
        assert_eq!(joined, body, "parsed frame does not re-encode to its body");
        true
    }

    #[test]
    fn parse_is_total_on_hostile_bytes() {
        use safereg_common::msg::ServerToClient;
        use safereg_common::rng::DetRng;
        use safereg_crypto::chain::{LinkKind, ResponseChain};
        let chain = KeyChain::from_master_seed(b"seed");
        let op = OpId::new(ReaderId(1), 7);
        let tag = Tag::new(4, WriterId(0));
        let reply = KvFrame {
            shard: ShardId(3),
            trace: TraceCtx {
                id: 0x0123_4567_89AB_CDEF,
                op_seq: 7,
                phase: 1,
                hop: 2,
            },
            stamp: ConfigStamp {
                epoch: 2,
                digest: 0x00D1_6E57,
            },
            link: Some(ResponseChain::new(&chain, ServerId(0), 1).append(
                op,
                LinkKind::DataResp,
                11,
                tag,
                13,
            )),
            key: Bytes::copy_from_slice(b"k"),
            env: Envelope::to_client(
                ServerId(0),
                ReaderId(1).into(),
                ServerToClient::DataResp {
                    op,
                    tag,
                    payload: Payload::Full(Value::from("value")),
                },
            ),
        };
        let clean = payload_of(&SealedKv::seal(&chain, &reply)).to_vec();
        assert!(parse_reencodes(&clean));
        // Every single-byte flip either fails to parse or parses to a frame
        // that re-encodes to the flipped bytes.
        for byte in 0..clean.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut flipped = clean.clone();
                flipped[byte] ^= mask;
                parse_reencodes(&flipped);
            }
        }
        let mut rng = DetRng::seed_from(0x0F2A_3E5E);
        for _ in 0..2048 {
            let mut junk = vec![0u8; rng.index(512)];
            rng.fill_bytes(&mut junk);
            parse_reencodes(&junk);
        }
    }
}
