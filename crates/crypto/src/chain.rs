//! Per-replica HMAC-chained response attestations.
//!
//! The accountability layer (DESIGN.md §13) makes every server response
//! *attributable*: alongside each reply the server emits a [`ChainLink`] —
//! a digest of the response MACed under the server's [audit
//! key](crate::keychain::KeyChain::audit_key) and chained to the previous
//! link via its MAC. A link is therefore a non-repudiable statement "server
//! `s` vouched for tag `t` / value digest `d` in operation `op`", and two
//! authentic links that contradict each other convict `s` from the links
//! alone — no trust in the accuser is needed beyond holding the deployment
//! seed (see the trust caveat on `audit_key`).
//!
//! The chain serves two purposes the per-link MAC alone would not:
//!
//! * **Fork detection.** Two authentic links with the same
//!   `(server, incarnation, seq)` but different content prove the server
//!   maintained two histories.
//! * **Ordering evidence.** `prev` commits each link to its predecessor, so
//!   an auditor holding a suffix of links can check they form one history.
//!
//! `incarnation` distinguishes legitimate restarts (crash/recovery resets
//! `seq` to 0 with a fresh incarnation) from forks within one process
//! lifetime; without it every supervised restart in the soak harness would
//! read as a forked chain.

use safereg_common::codec::{BytesReader, Wire, WireError};
use safereg_common::ids::ServerId;
use safereg_common::msg::OpId;
use safereg_common::tag::Tag;

use crate::hmac::HmacSha256;
use crate::keychain::{Key, KeyChain};
use crate::sha256::DIGEST_LEN;

/// Which response message a link attests to.
///
/// Distinguishing the kinds keeps a `TagResp` (which carries no payload,
/// `value_digest == 0`) from ever reading as an equivocation against a
/// `DataResp` at the same tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// A `TagResp` — the server vouched for a tag only.
    TagResp,
    /// A `PutAck` — the server vouched it stored the write's tag.
    PutAck,
    /// A `DataResp` — the server vouched for a tag *and* an entry digest.
    DataResp,
}

impl Wire for LinkKind {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            LinkKind::TagResp => 0,
            LinkKind::PutAck => 1,
            LinkKind::DataResp => 2,
        });
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        match u8::decode_borrowed(r)? {
            0 => Ok(LinkKind::TagResp),
            1 => Ok(LinkKind::PutAck),
            2 => Ok(LinkKind::DataResp),
            t => Err(WireError::BadDiscriminant {
                ty: "LinkKind",
                got: t,
            }),
        }
    }

    fn wire_len(&self) -> usize {
        1
    }
}

/// One link of a server's response chain.
///
/// The MAC covers every other field (including `prev`, which chains links
/// together), keyed by `audit_key(server)` — so authenticity of a link can
/// be checked offline from the link alone plus the deployment seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLink {
    /// The attesting server.
    pub server: ServerId,
    /// Process-lifetime counter; restarts bump it and reset `seq`.
    pub incarnation: u64,
    /// Position of this link in the chain of one incarnation.
    pub seq: u64,
    /// The client operation the response answered.
    pub op: OpId,
    /// Which response message is attested.
    pub kind: LinkKind,
    /// Digest of the register key the response concerned.
    pub key_digest: u64,
    /// The tag the server vouched for.
    pub tag: Tag,
    /// Digest of the vouched entry (0 for tag-only responses).
    pub value_digest: u64,
    /// MAC of the previous link (all-zero for the first link).
    pub prev: [u8; DIGEST_LEN],
    /// `HMAC(audit_key(server), fields-above)`.
    pub mac: [u8; DIGEST_LEN],
}

impl ChainLink {
    /// Encoded size of every link.
    pub const WIRE_LEN: usize = 2 + 8 + 8 + 11 + 1 + 8 + 10 + 8 + DIGEST_LEN + DIGEST_LEN;

    /// Encodes the MAC-covered fields (everything but `mac`).
    fn preimage(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(Self::WIRE_LEN - DIGEST_LEN);
        self.server.encode_to(&mut buf);
        self.incarnation.encode_to(&mut buf);
        self.seq.encode_to(&mut buf);
        self.op.encode_to(&mut buf);
        self.kind.encode_to(&mut buf);
        self.key_digest.encode_to(&mut buf);
        self.tag.encode_to(&mut buf);
        self.value_digest.encode_to(&mut buf);
        buf.extend_from_slice(&self.prev);
        buf
    }

    /// Checks the link's MAC against the server's audit key.
    ///
    /// `true` means the claimed server (or another holder of the deployment
    /// seed) really produced this link; a corrupted or forged link fails.
    pub fn verify(&self, chain: &KeyChain) -> bool {
        let key = chain.audit_key(self.server);
        HmacSha256::verify(key.as_bytes(), &self.preimage(), &self.mac)
    }
}

impl Wire for ChainLink {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.preimage());
        buf.extend_from_slice(&self.mac);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        // Fixed-size: a short buffer fails as one truncated link, before
        // any field is read.
        if r.remaining() < Self::WIRE_LEN {
            return Err(WireError::Truncated {
                needed: Self::WIRE_LEN,
                remaining: r.remaining(),
            });
        }
        let server = ServerId::decode_borrowed(r)?;
        let incarnation = u64::decode_borrowed(r)?;
        let seq = u64::decode_borrowed(r)?;
        let op = OpId::decode_borrowed(r)?;
        let kind = LinkKind::decode_borrowed(r)?;
        let key_digest = u64::decode_borrowed(r)?;
        let tag = Tag::decode_borrowed(r)?;
        let value_digest = u64::decode_borrowed(r)?;
        let mut prev = [0u8; DIGEST_LEN];
        prev.copy_from_slice(r.take(DIGEST_LEN)?);
        let mut mac = [0u8; DIGEST_LEN];
        mac.copy_from_slice(r.take(DIGEST_LEN)?);
        Ok(ChainLink {
            server,
            incarnation,
            seq,
            op,
            kind,
            key_digest,
            tag,
            value_digest,
            prev,
            mac,
        })
    }

    fn wire_len(&self) -> usize {
        Self::WIRE_LEN
    }
}

/// A server's rolling response chain: mints MAC-chained [`ChainLink`]s.
///
/// One instance per replica process (ISSUE 10's "per-replica rolling
/// chain"); the host serializes appends behind a mutex, so `seq` totally
/// orders every attested response of one incarnation.
#[derive(Debug)]
pub struct ResponseChain {
    key: Key,
    server: ServerId,
    incarnation: u64,
    seq: u64,
    head: [u8; DIGEST_LEN],
}

impl ResponseChain {
    /// Starts a fresh chain for `server` at the given incarnation.
    pub fn new(chain: &KeyChain, server: ServerId, incarnation: u64) -> Self {
        ResponseChain {
            key: chain.audit_key(server),
            server,
            incarnation,
            seq: 0,
            head: [0u8; DIGEST_LEN],
        }
    }

    /// Mints the next link, vouching for one response.
    pub fn append(
        &mut self,
        op: OpId,
        kind: LinkKind,
        key_digest: u64,
        tag: Tag,
        value_digest: u64,
    ) -> ChainLink {
        let mut link = ChainLink {
            server: self.server,
            incarnation: self.incarnation,
            seq: self.seq,
            op,
            kind,
            key_digest,
            tag,
            value_digest,
            prev: self.head,
            mac: [0u8; DIGEST_LEN],
        };
        link.mac = HmacSha256::mac(self.key.as_bytes(), &link.preimage());
        self.seq += 1;
        self.head = link.mac;
        link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safereg_common::ids::{ClientId, ReaderId, WriterId};

    fn op(seq: u64) -> OpId {
        OpId {
            client: ClientId::Reader(ReaderId(1)),
            seq,
        }
    }

    fn tag(num: u64) -> Tag {
        Tag {
            num,
            writer: WriterId(0),
        }
    }

    #[test]
    fn links_verify_and_chain() {
        let kc = KeyChain::from_master_seed(b"seed");
        let mut chain = ResponseChain::new(&kc, ServerId(2), 1);
        let a = chain.append(op(0), LinkKind::TagResp, 7, tag(1), 0);
        let b = chain.append(op(1), LinkKind::DataResp, 7, tag(1), 42);
        assert!(a.verify(&kc));
        assert!(b.verify(&kc));
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
        assert_eq!(b.prev, a.mac);
        assert_eq!(a.prev, [0u8; DIGEST_LEN]);
    }

    #[test]
    fn tampered_links_fail_verification() {
        let kc = KeyChain::from_master_seed(b"seed");
        let mut chain = ResponseChain::new(&kc, ServerId(2), 1);
        let good = chain.append(op(0), LinkKind::DataResp, 7, tag(1), 42);
        for mutate in [
            |l: &mut ChainLink| l.tag = tag(9),
            |l: &mut ChainLink| l.value_digest = 43,
            |l: &mut ChainLink| l.seq += 1,
            |l: &mut ChainLink| l.incarnation += 1,
            |l: &mut ChainLink| l.server = ServerId(3),
            |l: &mut ChainLink| l.prev[0] ^= 1,
            |l: &mut ChainLink| l.mac[0] ^= 1,
        ] {
            let mut bad = good;
            mutate(&mut bad);
            assert!(!bad.verify(&kc));
        }
        assert!(good.verify(&kc));
    }

    #[test]
    fn wrong_seed_rejects_links() {
        let kc = KeyChain::from_master_seed(b"seed");
        let other = KeyChain::from_master_seed(b"other");
        let mut chain = ResponseChain::new(&kc, ServerId(0), 0);
        let link = chain.append(op(0), LinkKind::PutAck, 1, tag(1), 0);
        assert!(link.verify(&kc));
        assert!(!link.verify(&other));
    }

    #[test]
    fn wire_roundtrip_is_exact() {
        let kc = KeyChain::from_master_seed(b"seed");
        let mut chain = ResponseChain::new(&kc, ServerId(5), 3);
        let link = chain.append(op(9), LinkKind::DataResp, 0xDEAD, tag(4), 0xBEEF);
        let bytes = link.to_bytes();
        assert_eq!(bytes.len(), ChainLink::WIRE_LEN);
        assert_eq!(link.wire_len(), ChainLink::WIRE_LEN);
        let back = ChainLink::from_bytes(&bytes).unwrap();
        assert_eq!(back, link);
        assert!(back.verify(&kc));
    }

    #[test]
    fn restart_incarnations_do_not_fork() {
        // Two incarnations both start at seq 0: same position, different
        // incarnation — verifiers must treat them as distinct histories.
        let kc = KeyChain::from_master_seed(b"seed");
        let a =
            ResponseChain::new(&kc, ServerId(1), 0).append(op(0), LinkKind::TagResp, 1, tag(1), 0);
        let b =
            ResponseChain::new(&kc, ServerId(1), 1).append(op(0), LinkKind::TagResp, 1, tag(2), 0);
        assert!(a.verify(&kc) && b.verify(&kc));
        assert_eq!((a.seq, b.seq), (0, 0));
        assert_ne!(a.incarnation, b.incarnation);
    }
}
