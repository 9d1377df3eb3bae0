//! Epoch-numbered membership configurations for reconfiguration under churn.
//!
//! The register protocols (BSR/BCSR) assume a *fixed* fleet; this module
//! supplies the coordination layer that lets the fleet change one replica at
//! a time while reads and writes keep running (Kumar & Welch,
//! arXiv:1910.06716). The model:
//!
//! * An [`EpochConfig`] is the full membership view: a monotonically
//!   increasing `epoch` number plus the sorted list of [`Member`]s (server id
//!   and, when known, its socket address). Every reconfiguration step — add,
//!   remove, or replace of a single replica — produces the successor config
//!   with `epoch + 1`.
//! * A [`ConfigStamp`] is the 12-byte wire fingerprint of a config: the
//!   epoch plus a digest over the epoch and the *sorted member ids*
//!   (addresses deliberately excluded, so a client that only knows ids and a
//!   server that also knows addresses agree on the stamp). Each `KvFrame`
//!   carries the sender's stamp inside the MAC-covered region — exactly like
//!   `TraceCtx` — so a Byzantine network cannot splice a frame from one
//!   epoch into another.
//! * A server whose current config does not match an incoming stamp answers
//!   `WrongEpoch` carrying its full config; the client adopts a newer config
//!   only once `f + 1` distinct servers vouch for the same `(epoch, digest)`
//!   (a single Byzantine replica cannot forge a membership change), then
//!   re-issues the op against the new membership.
//!
//! Why quorum intersection survives the transition: each step changes at
//! most one member per shard group, and the group's quorum parameters
//! `(m, f)` are constant across epochs. Two quorums of `m − f` drawn from
//! adjacent epochs share at least `m − 2f − 1` members of the old epoch;
//! with `m ≥ 4f + 1` (BSR) that is `≥ 2f`, so after removing up to `f`
//! Byzantine members at least `f` honest servers — enough for a valid
//! `f + 1` witness set once the writer itself is counted — straddle the
//! boundary. The state transfer performed *before* a new or re-placed
//! replica serves (see `TcpKvCluster`) restores the invariant that every
//! member of the new epoch holds the state a member of the old epoch held.

use crate::codec::{BytesReader, Wire, WireError};
use crate::ids::ServerId;

/// One fleet member: a server id plus its (possibly unknown) IPv4 socket
/// address. Address `0.0.0.0:0` means "unknown" — stamps never cover
/// addresses, so id-only views (clients) and addressed views (servers,
/// cluster orchestration) fingerprint identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Member {
    /// Fleet-wide physical server id.
    pub id: ServerId,
    /// IPv4 address bits (big-endian octets packed into a `u32`); 0 when
    /// unknown.
    pub ip: u32,
    /// TCP port; 0 when unknown.
    pub port: u16,
}

impl Member {
    /// Member with an unknown address (client-side views).
    pub fn unaddressed(id: ServerId) -> Member {
        Member { id, ip: 0, port: 0 }
    }

    /// Member with a known IPv4 socket address.
    pub fn at(id: ServerId, addr: std::net::SocketAddr) -> Member {
        match addr {
            std::net::SocketAddr::V4(v4) => Member {
                id,
                ip: u32::from_be_bytes(v4.ip().octets()),
                port: v4.port(),
            },
            // The workspace only binds IPv4 loopback; a V6 addr degrades to
            // "unknown" rather than silently truncating.
            std::net::SocketAddr::V6(_) => Member::unaddressed(id),
        }
    }

    /// The socket address, if one was recorded.
    pub fn addr(&self) -> Option<std::net::SocketAddr> {
        if self.ip == 0 && self.port == 0 {
            return None;
        }
        Some(std::net::SocketAddr::from((
            self.ip.to_be_bytes(),
            self.port,
        )))
    }
}

impl Wire for Member {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.id.encode_to(buf);
        self.ip.encode_to(buf);
        self.port.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(Member {
            id: ServerId::decode_borrowed(r)?,
            ip: u32::decode_borrowed(r)?,
            port: u16::decode_borrowed(r)?,
        })
    }
}

/// An epoch-numbered membership configuration. Members are kept sorted by
/// id; all the constructors and successor builders preserve that invariant,
/// so [`EpochConfig::digest`] is order-independent by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochConfig {
    /// Monotone configuration number; bumped by one per reconfiguration
    /// step (one replica added, removed, or replaced).
    pub epoch: u32,
    /// The fleet at this epoch, sorted by server id.
    pub members: Vec<Member>,
}

impl EpochConfig {
    /// The initial configuration (epoch 0) over an id-only fleet.
    pub fn genesis(fleet: impl IntoIterator<Item = ServerId>) -> EpochConfig {
        let mut members: Vec<Member> = fleet.into_iter().map(Member::unaddressed).collect();
        members.sort_unstable();
        members.dedup_by_key(|m| m.id);
        EpochConfig { epoch: 0, members }
    }

    /// A configuration at an explicit epoch from pre-built members
    /// (sorted + deduped here so callers cannot break the invariant).
    pub fn at_epoch(epoch: u32, mut members: Vec<Member>) -> EpochConfig {
        members.sort_unstable();
        members.dedup_by_key(|m| m.id);
        EpochConfig { epoch, members }
    }

    /// Sorted member ids.
    pub fn ids(&self) -> Vec<ServerId> {
        self.members.iter().map(|m| m.id).collect()
    }

    /// Whether `id` is a member of this epoch.
    pub fn contains(&self, id: ServerId) -> bool {
        self.members.binary_search_by_key(&id, |m| m.id).is_ok()
    }

    /// The recorded address of member `id`, if both are known.
    pub fn addr_of(&self, id: ServerId) -> Option<std::net::SocketAddr> {
        let i = self.members.binary_search_by_key(&id, |m| m.id).ok()?;
        self.members[i].addr()
    }

    /// Membership digest: FNV-1a over the epoch and the sorted member ids,
    /// finalized with SplitMix64. Addresses are excluded (see [`Member`]).
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = FNV_OFFSET;
        for byte in self.epoch.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        for m in &self.members {
            for byte in m.id.0.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        }
        // SplitMix64 finalizer for avalanche.
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    /// The wire fingerprint of this configuration.
    pub fn stamp(&self) -> ConfigStamp {
        ConfigStamp {
            epoch: self.epoch,
            digest: self.digest(),
        }
    }

    /// Successor config (epoch + 1) with `member` added.
    pub fn with_added(&self, member: Member) -> EpochConfig {
        let mut members = self.members.clone();
        members.push(member);
        EpochConfig::at_epoch(self.epoch + 1, members)
    }

    /// Successor config (epoch + 1) with `id` removed.
    pub fn with_removed(&self, id: ServerId) -> EpochConfig {
        let members = self
            .members
            .iter()
            .copied()
            .filter(|m| m.id != id)
            .collect();
        EpochConfig::at_epoch(self.epoch + 1, members)
    }

    /// Successor config (epoch + 1) with `out` swapped for `joiner` — a
    /// single epoch bump, so a replace disturbs each shard group at most as
    /// much as one add plus one remove without the intermediate view.
    pub fn with_replaced(&self, out: ServerId, joiner: Member) -> EpochConfig {
        let mut members: Vec<Member> = self
            .members
            .iter()
            .copied()
            .filter(|m| m.id != out)
            .collect();
        members.push(joiner);
        EpochConfig::at_epoch(self.epoch + 1, members)
    }
}

impl Wire for EpochConfig {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.epoch.encode_to(buf);
        self.members.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        let epoch = u32::decode_borrowed(r)?;
        let members = Vec::<Member>::decode_borrowed(r)?;
        Ok(EpochConfig::at_epoch(epoch, members))
    }
}

/// Fixed-size wire fingerprint of an [`EpochConfig`], carried in every
/// `KvFrame` inside the MAC-covered region (the `TraceCtx` pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigStamp {
    /// Epoch the sender believes is current.
    pub epoch: u32,
    /// [`EpochConfig::digest`] of that epoch's membership.
    pub digest: u64,
}

impl ConfigStamp {
    /// Encoded size: 4 (epoch) + 8 (digest).
    pub const WIRE_LEN: usize = 12;

    /// Whether this stamp fingerprints `config`.
    pub fn matches(&self, config: &EpochConfig) -> bool {
        self.epoch == config.epoch && self.digest == config.digest()
    }
}

impl Wire for ConfigStamp {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.epoch.encode_to(buf);
        self.digest.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(ConfigStamp {
            epoch: u32::decode_borrowed(r)?,
            digest: u64::decode_borrowed(r)?,
        })
    }

    fn wire_len(&self) -> usize {
        ConfigStamp::WIRE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(ids: &[u16]) -> Vec<ServerId> {
        ids.iter().map(|&i| ServerId(i)).collect()
    }

    #[test]
    fn genesis_sorts_and_dedups() {
        let cfg = EpochConfig::genesis(fleet(&[3, 1, 2, 1]));
        assert_eq!(cfg.epoch, 0);
        assert_eq!(cfg.ids(), fleet(&[1, 2, 3]));
    }

    #[test]
    fn digest_ignores_addresses_and_member_order() {
        let plain = EpochConfig::genesis(fleet(&[0, 1, 2]));
        let addr: std::net::SocketAddr = "127.0.0.1:4500".parse().unwrap();
        let addressed = EpochConfig::at_epoch(
            0,
            vec![
                Member::at(ServerId(2), addr),
                Member::unaddressed(ServerId(0)),
                Member::at(ServerId(1), addr),
            ],
        );
        assert_eq!(plain.digest(), addressed.digest());
        assert!(plain.stamp().matches(&addressed));
        assert_eq!(addressed.addr_of(ServerId(2)), Some(addr));
        assert_eq!(addressed.addr_of(ServerId(0)), None);
    }

    #[test]
    fn digest_separates_epoch_and_membership() {
        let base = EpochConfig::genesis(fleet(&[0, 1, 2]));
        let grown = base.with_added(Member::unaddressed(ServerId(3)));
        assert_eq!(grown.epoch, 1);
        assert_ne!(base.digest(), grown.digest());
        // Same members at a different epoch still re-fingerprints.
        let renum = EpochConfig::at_epoch(7, base.members.clone());
        assert_ne!(base.digest(), renum.digest());
    }

    #[test]
    fn successor_builders_preserve_sorted_members() {
        let base = EpochConfig::genesis(fleet(&[1, 3, 5]));
        let added = base.with_added(Member::unaddressed(ServerId(2)));
        assert_eq!(added.ids(), fleet(&[1, 2, 3, 5]));
        let removed = added.with_removed(ServerId(3));
        assert_eq!(removed.ids(), fleet(&[1, 2, 5]));
        assert_eq!(removed.epoch, 2);
        let swapped = removed.with_replaced(ServerId(5), Member::unaddressed(ServerId(0)));
        assert_eq!(swapped.ids(), fleet(&[0, 1, 2]));
        assert_eq!(swapped.epoch, 3);
    }

    #[test]
    fn config_and_stamp_roundtrip() {
        let addr: std::net::SocketAddr = "127.0.0.1:9009".parse().unwrap();
        let cfg = EpochConfig::at_epoch(
            5,
            vec![
                Member::at(ServerId(4), addr),
                Member::unaddressed(ServerId(9)),
            ],
        );
        let buf = cfg.to_bytes();
        assert_eq!(EpochConfig::from_bytes(&buf).unwrap(), cfg);

        let stamp = cfg.stamp();
        let sbuf = stamp.to_bytes();
        assert_eq!(sbuf.len(), ConfigStamp::WIRE_LEN);
        assert_eq!(ConfigStamp::from_bytes(&sbuf).unwrap(), stamp);
        assert!(stamp.matches(&cfg));
        assert!(!stamp.matches(&cfg.with_removed(ServerId(9))));
    }
}
