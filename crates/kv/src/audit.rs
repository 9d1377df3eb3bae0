//! Byzantine accountability: evidence, verdicts, and the audit log.
//!
//! Every attestable server response carries a MAC-chained
//! [`ChainLink`] (see [`safereg_crypto::chain`]). The transport feeds each
//! received link into an [`AuditLog`], which cross-checks it against every
//! link seen so far — across readers, writers, and connections — and files
//! [`Evidence`] when two authentic links contradict each other or a single
//! authentic link vouches for something no correct server could say.
//!
//! # Conviction conditions
//!
//! A replica is [`Verdict::Convicted`] only on evidence that re-verifies
//! offline from the links alone (plus the deployment seed):
//!
//! * [`Charge::InadmissibleTag`] — one authentic link vouches for a tag
//!   whose writer is not in the registered writer set. A correct server
//!   stores only tags that arrived in channel-authenticated `PUT-DATA`
//!   frames, which unknown writers cannot produce, so fabricated tags
//!   (e.g. the Fabricator's `WriterId(9999)` forgeries) are self-signed
//!   confessions. `Tag::ZERO` (the initial value) and the cluster-internal
//!   state-transfer writer are always admissible.
//! * [`Charge::Equivocation`] — two authentic links, same
//!   `(server, key, tag, kind)`, different value digest. The tag uniquely
//!   determines the value in these protocols, so a correct server can
//!   never vouch for two values at one tag — this is exactly the lie the
//!   Equivocator tells (a *different* forged value per reader, which is
//!   why the log pools links across clients).
//! * [`Charge::ForkedChain`] — two authentic links occupying the same
//!   `(server, incarnation, seq)` chain position with different content:
//!   the server maintained two histories. Restarts are *not* forks — each
//!   (re)spawn gets a fresh incarnation, so both chains legitimately
//!   starting at `seq = 0` never collide.
//!
//! # Why MAC failure is not equivocation
//!
//! A frame corrupted on the wire (chaos `corrupt`/`truncate`) fails the
//! channel MAC and is dropped before any link is extracted; a link whose
//! own audit MAC fails is ignored for evidence. Both raise *suspicion* at
//! most — convicting on them would let the network frame a correct
//! replica. Suspicion (and Byzantine silence, staleness, drops) never
//! convicts: [`Verdict::Suspect`] is circumstantial, [`Verdict::Convicted`]
//! is proof.

use std::collections::{BTreeMap, BTreeSet};

use safereg_common::buf::Bytes;
use safereg_common::codec::{BytesReader, Wire, WireError};
use safereg_common::ids::{ServerId, WriterId};
use safereg_common::sync::Mutex;
use safereg_common::tag::Tag;
use safereg_crypto::chain::ChainLink;
use safereg_crypto::keychain::KeyChain;
use safereg_obs::names;

use crate::server::TRANSFER_WRITER;

/// What a piece of evidence proves. See the module docs for the exact
/// conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// An authentic link vouches for a tag no registered writer produced.
    InadmissibleTag,
    /// Two authentic links vouch for different values at one tag.
    Equivocation,
    /// Two authentic links occupy one chain position with different content.
    ForkedChain,
}

impl std::fmt::Display for Charge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Charge::InadmissibleTag => "inadmissible-tag",
            Charge::Equivocation => "equivocation",
            Charge::ForkedChain => "forked-chain",
        })
    }
}

impl Wire for Charge {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            Charge::InadmissibleTag => 0,
            Charge::Equivocation => 1,
            Charge::ForkedChain => 2,
        });
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        match u8::decode_borrowed(r)? {
            0 => Ok(Charge::InadmissibleTag),
            1 => Ok(Charge::Equivocation),
            2 => Ok(Charge::ForkedChain),
            t => Err(WireError::BadDiscriminant {
                ty: "Charge",
                got: t,
            }),
        }
    }
}

/// A self-contained, transferable proof of one replica's misbehaviour:
/// the convicting link(s) plus the sealed reply frames they arrived in.
///
/// Verification ([`Evidence::verify`]) needs only the links and the
/// deployment seed — the frames ride along for forensics (they let an
/// operator replay exactly what the replica said on the wire). Holds no
/// key material, so it can be logged, shipped and stored freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// The replica the evidence convicts.
    pub accused: ServerId,
    /// What the links prove.
    pub charge: Charge,
    /// The convicting link.
    pub link: ChainLink,
    /// The contradicting link (`None` for [`Charge::InadmissibleTag`],
    /// which one link proves alone).
    pub other: Option<ChainLink>,
    /// Sealed wire frame `link` arrived in.
    pub frame: Bytes,
    /// Sealed wire frame `other` arrived in (empty when `other` is none).
    pub other_frame: Bytes,
}

impl Wire for Evidence {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.accused.encode_to(buf);
        self.charge.encode_to(buf);
        self.link.encode_to(buf);
        self.other.encode_to(buf);
        self.frame.encode_to(buf);
        self.other_frame.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(Evidence {
            accused: ServerId::decode_borrowed(r)?,
            charge: Charge::decode_borrowed(r)?,
            link: ChainLink::decode_borrowed(r)?,
            other: Option::<ChainLink>::decode_borrowed(r)?,
            frame: Bytes::decode_borrowed(r)?,
            other_frame: Bytes::decode_borrowed(r)?,
        })
    }
}

/// Whether a correct server could legitimately vouch for `tag`: the
/// initial value, a cluster-internal state transfer, or any registered
/// writer's tag.
fn admissible(tag: &Tag, writers: &BTreeSet<WriterId>) -> bool {
    *tag == Tag::ZERO || tag.writer == TRANSFER_WRITER || writers.contains(&tag.writer)
}

impl Evidence {
    /// Re-verifies this evidence offline: from the evidence, the
    /// deployment seed and the registered writer set alone, with no trust
    /// in whoever filed it. Returns `true` iff the evidence convicts
    /// [`Evidence::accused`].
    pub fn verify(&self, chain: &KeyChain, writers: &[WriterId]) -> bool {
        if self.link.server != self.accused || !self.link.verify(chain) {
            return false;
        }
        match self.charge {
            Charge::InadmissibleTag => {
                let set: BTreeSet<WriterId> = writers.iter().copied().collect();
                !admissible(&self.link.tag, &set)
            }
            Charge::Equivocation => {
                let Some(other) = &self.other else {
                    return false;
                };
                other.server == self.accused
                    && other.verify(chain)
                    && other.key_digest == self.link.key_digest
                    && other.tag == self.link.tag
                    && other.kind == self.link.kind
                    && other.value_digest != self.link.value_digest
            }
            Charge::ForkedChain => {
                let Some(other) = &self.other else {
                    return false;
                };
                other.server == self.accused
                    && other.verify(chain)
                    && other.incarnation == self.link.incarnation
                    && other.seq == self.link.seq
                    && *other != self.link
            }
        }
    }
}

/// The audit verdict on one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Proven Byzantine by evidence that re-verifies offline.
    Convicted(ServerId),
    /// Circumstantial signals only (mismatched cross-checks, dropped or
    /// forged frames) — never grounds for eviction by itself.
    Suspect,
    /// Nothing against this replica.
    Clean,
}

/// Bound on the per-category link-tracking maps. Evidence is kept
/// unbounded (it is small and precious); the *tracking* state ages out
/// oldest-first so a long soak cannot grow without bound.
const MAX_TRACKED: usize = 65_536;

/// One server's claim about a value: which `(server, key_digest,
/// tag.num, tag.writer, kind)` coordinate it vouched at.
type ClaimKey = (ServerId, u64, u64, u16, u8);

/// The first-seen side of a claim: the vouched value digest plus the
/// link and sealed frame that would convict on contradiction.
type ClaimSeen = (u64, ChainLink, Bytes);

/// Cross-checking state: first-seen links per value claim and per chain
/// position, pooled across every client that feeds this log.
struct Inner {
    /// Value claims: first vouched digest per claim coordinate.
    claims: BTreeMap<ClaimKey, ClaimSeen>,
    /// `(server, incarnation, seq)` → first link at that chain position.
    positions: BTreeMap<(ServerId, u64, u64), (ChainLink, Bytes)>,
    evidence: Vec<Evidence>,
    convicted: BTreeMap<ServerId, Charge>,
    suspicion: BTreeMap<ServerId, u64>,
}

/// Shared audit log: clients feed received links in, verdicts come out.
///
/// One log per deployment (the cluster hands every transport the same
/// `Arc<AuditLog>`) — pooling across readers is what catches an
/// equivocator that lies *consistently per reader*.
pub struct AuditLog {
    chain: KeyChain,
    writers: Mutex<BTreeSet<WriterId>>,
    /// Ground-truth set for the false-accusation counter: replicas the
    /// harness *knows* are correct. Purely observability — verdicts never
    /// consult it.
    known_correct: Mutex<BTreeSet<ServerId>>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("AuditLog")
            .field("keychain", &"<redacted>")
            .field("evidence", &inner.evidence.len())
            .field("convicted", &inner.convicted.len())
            .finish()
    }
}

impl AuditLog {
    /// Creates an empty log verifying links under `chain`'s audit keys.
    pub fn new(chain: KeyChain) -> Self {
        AuditLog {
            chain,
            writers: Mutex::new(BTreeSet::new()),
            known_correct: Mutex::new(BTreeSet::new()),
            inner: Mutex::new(Inner {
                claims: BTreeMap::new(),
                positions: BTreeMap::new(),
                evidence: Vec::new(),
                convicted: BTreeMap::new(),
                suspicion: BTreeMap::new(),
            }),
        }
    }

    /// Registers writers whose tags are admissible. The deployment must
    /// register every legitimate writer before auditing traffic, or
    /// honest responses relaying their writes would read as fabrications.
    pub fn register_writers(&self, writers: impl IntoIterator<Item = WriterId>) {
        self.writers.lock().extend(writers);
    }

    /// Declares replicas the harness knows to be correct, arming the
    /// `kv.audit.false_accusations` counter for them.
    pub fn expect_correct(&self, servers: impl IntoIterator<Item = ServerId>) {
        self.known_correct.lock().extend(servers);
    }

    /// The registered writer set (for offline [`Evidence::verify`] calls).
    pub fn registered_writers(&self) -> Vec<WriterId> {
        self.writers.lock().iter().copied().collect()
    }

    /// Notes a circumstantial signal against `server` (cross-check
    /// mismatch, forged or dropped frame). Bumps the replica's suspicion
    /// gauge; never convicts.
    pub fn suspect(&self, server: ServerId) {
        let mut inner = self.inner.lock();
        let s = inner.suspicion.entry(server).or_insert(0);
        *s += 1;
        let level = *s;
        drop(inner);
        safereg_obs::global()
            .gauge(&names::audit_suspicion_gauge(server.0))
            .set(level);
    }

    /// Cross-checks one received link against everything seen so far,
    /// filing evidence on contradiction. `frame` is the sealed wire frame
    /// the link arrived in (kept inside any evidence filed).
    ///
    /// Returns the (possibly updated) verdict on the link's server.
    pub fn observe(&self, link: &ChainLink, frame: &Bytes) -> Verdict {
        if !link.verify(&self.chain) {
            // Channel-authentic frame carrying a link that fails its own
            // audit MAC: suspicious, but not offline-provable — an accuser
            // could fabricate such a link about anyone.
            self.suspect(link.server);
            return self.verdict(link.server);
        }
        let writers = self.writers.lock().clone();
        let mut inner = self.inner.lock();
        let mut filed: Vec<Evidence> = Vec::new();

        if !admissible(&link.tag, &writers) {
            filed.push(Evidence {
                accused: link.server,
                charge: Charge::InadmissibleTag,
                link: *link,
                other: None,
                frame: frame.clone(),
                other_frame: Bytes::new(),
            });
        }

        let position = (link.server, link.incarnation, link.seq);
        match inner.positions.get(&position) {
            Some((first, first_frame)) if first != link => {
                filed.push(Evidence {
                    accused: link.server,
                    charge: Charge::ForkedChain,
                    link: *link,
                    other: Some(*first),
                    frame: frame.clone(),
                    other_frame: first_frame.clone(),
                });
            }
            Some(_) => {}
            None => {
                if inner.positions.len() >= MAX_TRACKED {
                    inner.positions.pop_first();
                }
                inner.positions.insert(position, (*link, frame.clone()));
            }
        }

        let claim = (
            link.server,
            link.key_digest,
            link.tag.num,
            link.tag.writer.0,
            link.kind as u8,
        );
        match inner.claims.get(&claim) {
            Some((digest, first, first_frame)) if *digest != link.value_digest => {
                filed.push(Evidence {
                    accused: link.server,
                    charge: Charge::Equivocation,
                    link: *link,
                    other: Some(*first),
                    frame: frame.clone(),
                    other_frame: first_frame.clone(),
                });
            }
            Some(_) => {}
            None => {
                if inner.claims.len() >= MAX_TRACKED {
                    inner.claims.pop_first();
                }
                inner
                    .claims
                    .insert(claim, (link.value_digest, *link, frame.clone()));
            }
        }

        if !filed.is_empty() {
            let reg = safereg_obs::global();
            let newly_convicted = !inner.convicted.contains_key(&link.server);
            for e in filed {
                reg.counter(names::KV_AUDIT_EVIDENCE).inc();
                inner.convicted.entry(e.accused).or_insert(e.charge);
                inner.evidence.push(e);
            }
            if newly_convicted {
                reg.counter(names::KV_AUDIT_CONVICTIONS).inc();
                if self.known_correct.lock().contains(&link.server) {
                    reg.counter(names::KV_AUDIT_FALSE_ACCUSATIONS).inc();
                }
            }
        }

        Self::verdict_locked(&inner, link.server)
    }

    fn verdict_locked(inner: &Inner, server: ServerId) -> Verdict {
        if inner.convicted.contains_key(&server) {
            Verdict::Convicted(server)
        } else if inner.suspicion.get(&server).copied().unwrap_or(0) > 0 {
            Verdict::Suspect
        } else {
            Verdict::Clean
        }
    }

    /// The current verdict on `server`.
    pub fn verdict(&self, server: ServerId) -> Verdict {
        Self::verdict_locked(&self.inner.lock(), server)
    }

    /// All convicted replicas with the charge that first convicted each.
    pub fn convictions(&self) -> Vec<(ServerId, Charge)> {
        self.inner
            .lock()
            .convicted
            .iter()
            .map(|(s, c)| (*s, *c))
            .collect()
    }

    /// A snapshot of every piece of evidence filed so far.
    pub fn evidence(&self) -> Vec<Evidence> {
        self.inner.lock().evidence.clone()
    }

    /// The suspicion level accumulated against `server`.
    pub fn suspicion(&self, server: ServerId) -> u64 {
        self.inner
            .lock()
            .suspicion
            .get(&server)
            .copied()
            .unwrap_or(0)
    }

    /// Re-verifies every filed evidence record offline, as a third party
    /// would. Returns the indices of records that fail — always empty for
    /// a sound log.
    pub fn reverify(&self) -> Vec<usize> {
        let writers = self.registered_writers();
        self.evidence()
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.verify(&self.chain, &writers))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safereg_common::ids::{ClientId, ReaderId};
    use safereg_common::msg::OpId;
    use safereg_crypto::chain::{LinkKind, ResponseChain};

    fn op(seq: u64) -> OpId {
        OpId {
            client: ClientId::Reader(ReaderId(0)),
            seq,
        }
    }

    fn tag(num: u64, writer: u16) -> Tag {
        Tag {
            num,
            writer: WriterId(writer),
        }
    }

    fn log() -> (KeyChain, AuditLog) {
        let kc = KeyChain::from_master_seed(b"audit-test");
        let log = AuditLog::new(kc.clone());
        log.register_writers([WriterId(0), WriterId(1)]);
        (kc, log)
    }

    #[test]
    fn honest_links_stay_clean() {
        let (kc, log) = log();
        let mut chain = ResponseChain::new(&kc, ServerId(0), 0);
        let frame = Bytes::from_static(b"frame");
        for i in 0..10 {
            let link = chain.append(op(i), LinkKind::DataResp, 7, tag(i, 0), 100 + i);
            assert_eq!(log.observe(&link, &frame), Verdict::Clean);
        }
        // Re-serving the same claim with the same digest is consistent.
        let link = chain.append(op(11), LinkKind::DataResp, 7, tag(9, 0), 109);
        assert_eq!(log.observe(&link, &frame), Verdict::Clean);
        assert!(log.evidence().is_empty());
    }

    #[test]
    fn fabricated_tags_convict_on_one_link() {
        let (kc, log) = log();
        let mut chain = ResponseChain::new(&kc, ServerId(3), 0);
        let link = chain.append(op(0), LinkKind::TagResp, 7, tag(1_500_000, 9999), 0);
        assert_eq!(
            log.observe(&link, &Bytes::new()),
            Verdict::Convicted(ServerId(3))
        );
        let ev = log.evidence();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].charge, Charge::InadmissibleTag);
        assert!(ev[0].verify(&kc, &log.registered_writers()));
    }

    #[test]
    fn equivocation_convicts_across_readers() {
        let (kc, log) = log();
        let mut chain = ResponseChain::new(&kc, ServerId(2), 0);
        // Same key, same tag, different value digests — per-reader lies.
        let a = chain.append(op(0), LinkKind::DataResp, 7, tag(4, 1), 111);
        let b = chain.append(op(1), LinkKind::DataResp, 7, tag(4, 1), 222);
        assert_eq!(log.observe(&a, &Bytes::new()), Verdict::Clean);
        assert_eq!(
            log.observe(&b, &Bytes::new()),
            Verdict::Convicted(ServerId(2))
        );
        let ev = log.evidence();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].charge, Charge::Equivocation);
        assert!(ev[0].verify(&kc, &log.registered_writers()));
        assert!(log.reverify().is_empty());
    }

    #[test]
    fn tag_resp_and_data_resp_at_one_tag_do_not_conflict() {
        let (kc, log) = log();
        let mut chain = ResponseChain::new(&kc, ServerId(1), 0);
        let t = chain.append(op(0), LinkKind::TagResp, 7, tag(4, 1), 0);
        let d = chain.append(op(1), LinkKind::DataResp, 7, tag(4, 1), 999);
        assert_eq!(log.observe(&t, &Bytes::new()), Verdict::Clean);
        assert_eq!(log.observe(&d, &Bytes::new()), Verdict::Clean);
    }

    #[test]
    fn forked_chain_convicts_but_restart_does_not() {
        let (kc, log) = log();
        // Fork: two histories in one incarnation at seq 0.
        let f1 = ResponseChain::new(&kc, ServerId(4), 7).append(
            op(0),
            LinkKind::TagResp,
            1,
            tag(1, 0),
            0,
        );
        let f2 = ResponseChain::new(&kc, ServerId(4), 7).append(
            op(9),
            LinkKind::TagResp,
            2,
            tag(2, 0),
            0,
        );
        assert_eq!(log.observe(&f1, &Bytes::new()), Verdict::Clean);
        assert_eq!(
            log.observe(&f2, &Bytes::new()),
            Verdict::Convicted(ServerId(4))
        );
        // Restart: same seq, fresh incarnation — clean.
        let (kc2, log2) = self::log();
        let r1 = ResponseChain::new(&kc2, ServerId(4), 0).append(
            op(0),
            LinkKind::TagResp,
            1,
            tag(1, 0),
            0,
        );
        let r2 = ResponseChain::new(&kc2, ServerId(4), 1).append(
            op(0),
            LinkKind::TagResp,
            2,
            tag(2, 0),
            0,
        );
        assert_eq!(log2.observe(&r1, &Bytes::new()), Verdict::Clean);
        assert_eq!(log2.observe(&r2, &Bytes::new()), Verdict::Clean);
    }

    #[test]
    fn forged_links_raise_suspicion_not_conviction() {
        let (kc, log) = log();
        let mut chain = ResponseChain::new(&kc, ServerId(0), 0);
        let mut link = chain.append(op(0), LinkKind::TagResp, 1, tag(1, 0), 0);
        link.mac[0] ^= 0xFF;
        assert_eq!(log.observe(&link, &Bytes::new()), Verdict::Suspect);
        assert!(log.evidence().is_empty());
        assert_eq!(log.suspicion(ServerId(0)), 1);
    }

    #[test]
    fn evidence_roundtrips_and_reverifies_offline() {
        let (kc, log) = log();
        let mut chain = ResponseChain::new(&kc, ServerId(2), 0);
        let a = chain.append(op(0), LinkKind::DataResp, 7, tag(4, 1), 111);
        let b = chain.append(op(1), LinkKind::DataResp, 7, tag(4, 1), 222);
        log.observe(&a, &Bytes::from_static(b"frame-a"));
        log.observe(&b, &Bytes::from_static(b"frame-b"));
        let ev = log.evidence().remove(0);
        let bytes = ev.to_bytes();
        let back = Evidence::from_bytes(&bytes).unwrap();
        assert_eq!(back, ev);
        // A third party holding only the bytes, the seed and the writer
        // set reaches the same verdict.
        assert!(back.verify(&kc, &[WriterId(0), WriterId(1)]));
        // ...and tampered evidence does not survive it.
        let mut forged = back.clone();
        forged.accused = ServerId(0);
        assert!(!forged.verify(&kc, &[WriterId(0), WriterId(1)]));
        let mut relinked = back.clone();
        relinked.link.value_digest ^= 0xFF;
        assert!(!relinked.verify(&kc, &[WriterId(0), WriterId(1)]));
    }

    #[test]
    fn false_accusation_counter_stays_zero_for_honest_traffic() {
        let (kc, log) = log();
        log.expect_correct([ServerId(0), ServerId(1)]);
        let mut chain = ResponseChain::new(&kc, ServerId(0), 0);
        for i in 0..50 {
            let link = chain.append(op(i), LinkKind::DataResp, i % 3, tag(i / 3, 0), i * 7);
            assert_ne!(
                log.observe(&link, &Bytes::new()),
                Verdict::Convicted(ServerId(0))
            );
        }
        assert!(log.convictions().is_empty());
    }

    #[test]
    fn debug_output_redacts_the_keychain() {
        let (_, log) = log();
        let dbg = format!("{log:?}");
        assert!(dbg.contains("<redacted>"), "{dbg}");
    }
}
