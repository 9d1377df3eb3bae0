//! Pairwise key derivation.
//!
//! Every ordered-independent pair of processes shares a symmetric key
//! derived from a cluster master seed: `key(a, b) = HMAC(master,
//! encode(min(a,b)) || encode(max(a,b)))`. Deriving instead of storing keys
//! keeps setup O(1) while still giving each link its own key, so a
//! compromised (Byzantine) server learns only the keys of links it is an
//! endpoint of — it still cannot forge traffic between two other processes,
//! which is the property the paper's signature assumption provides.

use std::collections::BTreeMap;

use safereg_common::codec::Wire;
use safereg_common::ids::{NodeId, ServerId};

use crate::hmac::HmacSha256;
use crate::sha256::DIGEST_LEN;

/// A 256-bit symmetric key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Key(pub [u8; DIGEST_LEN]);

impl std::fmt::Debug for Key {
    /// Redacted: keys never appear in logs or panics.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Key(<redacted>)")
    }
}

impl Key {
    /// Borrows the raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Derives pairwise link keys for every process in a deployment.
///
/// # Examples
///
/// ```
/// use safereg_crypto::keychain::KeyChain;
/// use safereg_common::ids::{NodeId, ServerId, WriterId};
///
/// let chain = KeyChain::from_master_seed(b"deployment-42");
/// let a: NodeId = ServerId(0).into();
/// let b: NodeId = WriterId(1).into();
/// // Symmetric: both endpoints derive the same key.
/// assert_eq!(chain.pair_key(a, b), chain.pair_key(b, a));
/// // Distinct links get distinct keys.
/// let c: NodeId = ServerId(1).into();
/// assert_ne!(chain.pair_key(a, b), chain.pair_key(a, c));
/// ```
#[derive(Debug, Clone)]
pub struct KeyChain {
    master: Key,
}

impl KeyChain {
    /// Builds a keychain from a master seed (e.g. a deployment secret).
    pub fn from_master_seed(seed: &[u8]) -> Self {
        // Domain-separate the master key from any other use of the seed.
        KeyChain {
            master: Key(HmacSha256::mac(b"safereg/keychain/v1", seed)),
        }
    }

    /// The shared key for the link between `a` and `b`, independent of
    /// argument order.
    pub fn pair_key(&self, a: NodeId, b: NodeId) -> Key {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut material = Vec::with_capacity(16);
        lo.encode_to(&mut material);
        hi.encode_to(&mut material);
        Key(HmacSha256::mac(self.master.as_bytes(), &material))
    }

    /// The per-server key under which a replica MACs its response-chain
    /// links (see [`crate::chain`]).
    ///
    /// Distinct from every [`KeyChain::pair_key`] by domain separation, so a
    /// link MAC can never be confused with channel-frame material. Any
    /// holder of the master seed can re-derive the key and thus re-verify
    /// (or forge) a server's links — conviction evidence is transferable
    /// exactly within the domain that shares the deployment secret, the same
    /// trust boundary the pairwise-MAC channel substitution already assumes.
    pub fn audit_key(&self, server: ServerId) -> Key {
        let mut material = Vec::with_capacity(24);
        material.extend_from_slice(b"safereg/audit/v1");
        server.encode_to(&mut material);
        Key(HmacSha256::mac(self.master.as_bytes(), &material))
    }
}

/// Each link's keyed HMAC state, derived from a [`KeyChain`] on first use
/// and kept: a MAC under a ring pays neither [`KeyChain::pair_key`] nor
/// the keying. Hosts and client transports each keep one for their frames.
///
/// # Examples
///
/// ```
/// use safereg_common::ids::{NodeId, ServerId, WriterId};
/// use safereg_crypto::hmac::HmacSha256;
/// use safereg_crypto::keychain::{KeyChain, KeyRing};
///
/// let chain = KeyChain::from_master_seed(b"deployment-42");
/// let (s, w): (NodeId, NodeId) = (ServerId(0).into(), WriterId(1).into());
/// let mut ring = KeyRing::new(&chain);
/// let mut mac = ring.link(s, w).clone();
/// mac.update(b"PUT-DATA");
/// // The MAC a fresh HMAC under the pair key gives, in either direction.
/// let key = chain.pair_key(w, s);
/// assert_eq!(mac.finalize(), HmacSha256::mac(key.as_bytes(), b"PUT-DATA"));
/// ```
#[derive(Debug)]
pub struct KeyRing {
    chain: KeyChain,
    links: BTreeMap<(NodeId, NodeId), HmacSha256>,
}

impl KeyRing {
    /// An empty ring over `chain`; links are derived as they are used.
    pub fn new(chain: &KeyChain) -> KeyRing {
        KeyRing {
            chain: chain.clone(),
            links: BTreeMap::new(),
        }
    }

    /// The HMAC state keyed for the link between `a` and `b` (in either
    /// order); clone it to MAC a message.
    pub fn link(&mut self, a: NodeId, b: NodeId) -> &HmacSha256 {
        let pair = if a <= b { (a, b) } else { (b, a) };
        let chain = &self.chain;
        self.links
            .entry(pair)
            .or_insert_with(|| HmacSha256::new(chain.pair_key(a, b).as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safereg_common::ids::{ReaderId, ServerId, WriterId};

    fn n(id: impl Into<NodeId>) -> NodeId {
        id.into()
    }

    #[test]
    fn symmetric_in_endpoints() {
        let chain = KeyChain::from_master_seed(b"s");
        assert_eq!(
            chain.pair_key(n(ServerId(0)), n(ReaderId(1))),
            chain.pair_key(n(ReaderId(1)), n(ServerId(0)))
        );
    }

    #[test]
    fn distinct_links_distinct_keys() {
        let chain = KeyChain::from_master_seed(b"s");
        let k01 = chain.pair_key(n(ServerId(0)), n(ServerId(1)));
        let k02 = chain.pair_key(n(ServerId(0)), n(ServerId(2)));
        let k12 = chain.pair_key(n(ServerId(1)), n(ServerId(2)));
        assert_ne!(k01, k02);
        assert_ne!(k01, k12);
        assert_ne!(k02, k12);
    }

    #[test]
    fn reader_writer_id_collisions_do_not_collide_keys() {
        // ReaderId(1) and WriterId(1) share the numeric id but are distinct
        // processes; their links must differ.
        let chain = KeyChain::from_master_seed(b"s");
        let kr = chain.pair_key(n(ServerId(0)), n(ReaderId(1)));
        let kw = chain.pair_key(n(ServerId(0)), n(WriterId(1)));
        assert_ne!(kr, kw);
    }

    #[test]
    fn different_seeds_different_chains() {
        let a = KeyChain::from_master_seed(b"a");
        let b = KeyChain::from_master_seed(b"b");
        assert_ne!(
            a.pair_key(n(ServerId(0)), n(ServerId(1))),
            b.pair_key(n(ServerId(0)), n(ServerId(1)))
        );
    }

    #[test]
    fn audit_keys_are_per_server_and_domain_separated() {
        let chain = KeyChain::from_master_seed(b"s");
        assert_ne!(chain.audit_key(ServerId(0)), chain.audit_key(ServerId(1)));
        // An audit key never collides with any pair key of the same server.
        let pk = chain.pair_key(n(ServerId(0)), n(ServerId(1)));
        assert_ne!(chain.audit_key(ServerId(0)), pk);
        assert_ne!(chain.audit_key(ServerId(1)), pk);
    }

    #[test]
    fn a_ring_macs_like_its_pair_key_and_derives_each_link_once() {
        let chain = KeyChain::from_master_seed(b"s");
        let mut ring = KeyRing::new(&chain);
        let (s0, w1, r1) = (n(ServerId(0)), n(WriterId(1)), n(ReaderId(1)));
        for (a, b) in [(s0, w1), (w1, s0), (s0, r1)] {
            let mut mac = ring.link(a, b).clone();
            mac.update(b"frame");
            let want = HmacSha256::mac(chain.pair_key(a, b).as_bytes(), b"frame");
            assert_eq!(mac.finalize(), want);
        }
        assert_eq!(ring.links.len(), 2);
        let debug = format!("{ring:?}");
        assert!(
            debug.contains("<redacted>") && !debug.contains("state"),
            "{debug}"
        );
    }

    #[test]
    fn debug_redacts_key_material() {
        let chain = KeyChain::from_master_seed(b"secret");
        let key = chain.pair_key(n(ServerId(0)), n(ServerId(1)));
        assert_eq!(format!("{key:?}"), "Key(<redacted>)");
    }
}
