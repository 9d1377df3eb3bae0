//! Accountability harness: convict every injected Byzantine replica from
//! evidence alone, and never convict a correct one.
//!
//! The audit layer ([`safereg_kv::audit`]) claims three things:
//!
//! 1. **Completeness** — a replica that fabricates or equivocates is
//!    [`Verdict::Convicted`](safereg_kv::Verdict) from its own MAC-chained
//!    response links, with evidence that re-verifies offline.
//! 2. **Soundness** — wire corruption, drops, delays and truncation (the
//!    chaos proxy's whole repertoire) raise *suspicion* at most; the
//!    `kv.audit.false_accusations` counter stays at zero because a MAC
//!    failure is distinguishable from a signed contradiction.
//! 3. **Consequence** — a conviction quarantines the replica (read-only)
//!    and evicts it through the reconfiguration machinery, and the
//!    deployment keeps serving afterwards.
//!
//! This harness injects one Fabricator leg and one Equivocator leg into a
//! live TCP cluster, then runs a correct-but-corrupted chaos leg on a
//! second cluster, and checks all three claims. The Equivocator leg
//! deliberately registers the forged writer id as legitimate, so the
//! conviction *must* come from cross-reader equivocation pooling — the
//! hardest detection path — rather than the inadmissible-tag shortcut.
//! Each leg, and the post-eviction workload behind a sync `enforce`, is
//! one [`Schedule`] run by the [`Executor`].

use safereg_common::codec::Wire;
use safereg_common::config::QuorumConfig;
use safereg_common::ids::{ServerId, WriterId};
use safereg_core::behavior::ByzRole;
use safereg_kv::{AuditLog, Charge, Evidence, KvMode, TcpKvCluster};
use safereg_obs::names;
use safereg_transport::chaos::{FaultPlan, FaultSpec};

use crate::cli::Report;
use crate::json::Json;
use crate::ops::scenario_transport;
use crate::schedule::{replay, Act, Event, Executor, Schedule, Scope};

/// Knobs for one audit run.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Master seed: Byzantine forgery streams and the chaos schedule.
    pub seed: u64,
    /// Workload rounds per leg (each round is one put per fourth round
    /// plus a read from each of the two readers).
    pub ops: u64,
    /// Distinct keys the workload cycles through.
    pub keys: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            seed: 0xA0D1_7EED,
            ops: 64,
            keys: 2,
        }
    }
}

/// One leg's outcome.
#[derive(Debug, Clone)]
pub struct LegStat {
    /// `"fabricator"`, `"equivocator"` or `"chaos-corruption"`.
    pub label: &'static str,
    /// The replica playing the injected role, if any.
    pub accused: Option<u16>,
    /// Workload rounds driven.
    pub rounds: u64,
    /// Operations completed.
    pub ops: u64,
    /// Operations abandoned (retry budget exhausted).
    pub failures: u64,
    /// `kv.audit.evidence` delta over the leg.
    pub evidence: u64,
    /// Final verdict on the accused (or `"clean"` for the chaos leg).
    pub verdict: String,
    /// Whether the accused ended the leg convicted (vacuously false for
    /// the chaos leg, which must convict nobody).
    pub convicted: bool,
}

/// Outcome of one audit run.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The master seed.
    pub seed: u64,
    /// Fabricator, equivocator and chaos legs, in order.
    pub legs: Vec<LegStat>,
    /// `(server, charge)` pairs the main cluster's log convicted.
    pub convictions: Vec<(u16, String)>,
    /// Replicas the chaos-leg log convicted — 0 required (those replicas
    /// are all correct; only the network misbehaves).
    pub chaos_convictions: u64,
    /// `kv.audit.false_accusations` delta across the whole run — 0
    /// required.
    pub false_accusations: u64,
    /// Evidence records filed across the whole run.
    pub evidence_total: u64,
    /// An `inadmissible-tag` charge convicted the Fabricator.
    pub inadmissible_charge: bool,
    /// An `equivocation` charge convicted the Equivocator (its forged
    /// writer id was registered, closing the inadmissible-tag shortcut).
    pub equivocation_charge: bool,
    /// Every filed evidence record re-verified offline by the log.
    pub offline_reverify_ok: bool,
    /// Every evidence record survived a serialize → decode → re-verify
    /// round trip, as a third party would check it.
    pub offline_roundtrip_ok: bool,
    /// `kv.audit.quarantines` delta (one per convicted replica).
    pub quarantines: u64,
    /// `(evicted, replacement)` pairs from verdict enforcement.
    pub evicted: Vec<(u16, u16)>,
    /// Cluster epoch after the convicted replicas were replaced.
    pub epoch_after_eviction: u32,
    /// Operations completed against the post-eviction membership.
    pub post_eviction_ops: u64,
    /// Post-eviction operations abandoned — 0 required.
    pub post_eviction_failures: u64,
    /// Highest suspicion accumulated against a known-correct replica on
    /// the main log (informational: suspicion is not an accusation).
    pub suspicion_correct_max: u64,
}

impl Report for AuditReport {
    const NAME: &'static str = "audit";

    /// Both injected roles convicted on the right charge, evidence
    /// re-verifies offline (including through serialization), nobody
    /// convicted under pure network faults, zero false accusations, and
    /// conviction led to quarantine + eviction with the cluster still
    /// serving.
    fn ok(&self) -> bool {
        let injected_convicted = self
            .legs
            .iter()
            .filter(|l| l.accused.is_some())
            .all(|l| l.convicted && l.ops > 0);
        let chaos_clean = self
            .legs
            .iter()
            .filter(|l| l.accused.is_none())
            .all(|l| !l.convicted && l.ops > 0);
        injected_convicted
            && chaos_clean
            && self.inadmissible_charge
            && self.equivocation_charge
            && self.chaos_convictions == 0
            && self.false_accusations == 0
            && self.offline_reverify_ok
            && self.offline_roundtrip_ok
            && self.evicted.len() == 2
            && self.quarantines >= 2
            && self.post_eviction_ops > 0
            && self.post_eviction_failures == 0
    }

    fn json(&self) -> Json {
        let legs = self.legs.iter().map(|l| {
            Json::object()
                .str("label", l.label)
                .field("accused", Json::opt(l.accused))
                .num("rounds", l.rounds)
                .num("ops", l.ops)
                .num("failures", l.failures)
                .num("evidence", l.evidence)
                .str("verdict", &l.verdict)
                .num("convicted", l.convicted)
                .end()
        });
        let convictions = self
            .convictions
            .iter()
            .map(|(s, c)| Json::object().num("server", s).str("charge", c).end());
        let evicted = self
            .evicted
            .iter()
            .map(|(old, new)| Json::array([Json::num(old), Json::num(new)]));
        Json::object()
            .num("seed", self.seed)
            .field("legs", Json::array(legs))
            .field("convictions", Json::array(convictions))
            .num("chaos_convictions", self.chaos_convictions)
            .num("false_accusations", self.false_accusations)
            .num("evidence_total", self.evidence_total)
            .num("inadmissible_charge", self.inadmissible_charge)
            .num("equivocation_charge", self.equivocation_charge)
            .num("offline_reverify_ok", self.offline_reverify_ok)
            .num("offline_roundtrip_ok", self.offline_roundtrip_ok)
            .num("quarantines", self.quarantines)
            .field("evicted", Json::array(evicted))
            .num("epoch_after_eviction", self.epoch_after_eviction)
            .num("post_eviction_ops", self.post_eviction_ops)
            .num("post_eviction_failures", self.post_eviction_failures)
            .num("suspicion_correct_max", self.suspicion_correct_max)
            .num("ok", self.ok())
            .end()
    }
}

/// Attempts per logical operation — the chaos leg drops and corrupts a
/// few percent of frames, and the post-eviction phase crosses an epoch
/// adoption; each must still terminate.
const OP_RETRIES: usize = 8;

/// The replica that plays the Fabricator in leg 1.
const FABRICATOR: ServerId = ServerId(3);
/// The replica that plays the Equivocator in leg 2.
const EQUIVOCATOR: ServerId = ServerId(2);
/// The forged writer id [`safereg_core::behavior::Equivocator`] stamps
/// into its per-reader lies. Leg 2 registers it as legitimate so the
/// conviction must come from equivocation pooling, not tag admissibility.
const EQUIVOCATOR_FORGED_WRITER: WriterId = WriterId(8888);

/// The audit generator: the Fabricator leg, the Equivocator leg, the
/// post-eviction workload (a sync `enforce` first) and the chaos leg, which
/// runs on its own cluster. Each leg is `rounds` workload rounds: a put by
/// client 1 every fourth round, then a read from client 1, a barrier, and
/// a read from client 2 on the same key — consecutive same-key reads are
/// what hands an equivocator two chances to tell one story.
pub(crate) fn legs(cfg: &AuditConfig) -> [Schedule; 4] {
    let keys = cfg.keys.max(1);
    let rounds = || {
        (0..cfg.ops as usize).flat_map(move |i| {
            let k = i % keys;
            let put = (i % 4 == 0).then_some(Event::Put(1, k));
            let barrier = Event::Sync(Act::Barrier);
            let reads = [Event::Get(1, k), barrier, Event::Get(2, k)];
            put.into_iter().chain(reads)
        })
    };
    let set = |sid, role| Event::Sync(Act::SetRole(sid, Scope::Served, role, cfg.seed));
    let leg = |sid: ServerId, role: ByzRole| {
        let mut s = Schedule::new(cfg.seed);
        s.extend([set(sid, role)]);
        s.extend(rounds());
        s.extend([set(sid, ByzRole::Correct)]);
        s
    };
    let mut enforce = Schedule::new(cfg.seed);
    enforce.extend([Event::Sync(Act::Enforce)]);
    enforce.extend(rounds());
    let mut chaos = Schedule::new(cfg.seed);
    chaos.extend(rounds());
    [
        leg(FABRICATOR, ByzRole::Fabricator),
        leg(EQUIVOCATOR, ByzRole::Equivocator),
        enforce,
        chaos,
    ]
}

/// Runs one leg and folds its record into a [`LegStat`], judging
/// `accused` against the log's verdict.
fn run_leg(
    exec: &mut Executor,
    cluster: &mut TcpKvCluster,
    audit: &AuditLog,
    leg: (&'static str, Option<ServerId>, &Schedule),
    rounds: u64,
) -> LegStat {
    let (label, accused, schedule) = leg;
    let reg = safereg_obs::global();
    let evidence0 = reg.counter(names::KV_AUDIT_EVIDENCE).get();
    let record = exec.run(cluster, schedule);
    let (verdict, convicted) = match accused {
        Some(sid) => match audit.verdict(sid) {
            safereg_kv::Verdict::Convicted(_) => {
                let charge = audit
                    .convictions()
                    .into_iter()
                    .find(|(s, _)| *s == sid)
                    .map(|(_, c)| c.to_string())
                    .unwrap_or_default();
                (format!("convicted({charge})"), true)
            }
            safereg_kv::Verdict::Suspect => ("suspect".into(), false),
            safereg_kv::Verdict::Clean => ("clean".into(), false),
        },
        // Chaos leg: the leg is "convicted" if *anyone* was — that is the
        // false-accusation failure mode the leg exists to rule out.
        None => {
            let n = audit.convictions().len();
            (format!("{n} convicted"), n > 0)
        }
    };
    LegStat {
        label,
        accused: accused.map(|s| s.0),
        rounds,
        ops: record.completed(),
        failures: record.failed(),
        evidence: reg.counter(names::KV_AUDIT_EVIDENCE).get() - evidence0,
        verdict,
        convicted,
    }
}

/// Serialize → decode → re-verify every evidence record, exactly as a
/// third party holding only the deployment seed and writer set would.
fn roundtrip_verifies(evidence: &[Evidence], cluster: &TcpKvCluster, audit: &AuditLog) -> bool {
    let writers = audit.registered_writers();
    evidence.iter().all(|e| {
        let bytes = e.to_bytes();
        match Evidence::from_bytes(&bytes) {
            Ok(decoded) => decoded == *e && decoded.verify(cluster.chain(), &writers),
            Err(_) => false,
        }
    })
}

/// Runs the audit scenario end to end.
///
/// # Panics
///
/// Panics when a cluster cannot be started — an environment failure, not
/// an audit outcome.
pub fn audit_run(cfg: &AuditConfig) -> AuditReport {
    let reg = safereg_obs::global();
    let fa0 = reg.counter(names::KV_AUDIT_FALSE_ACCUSATIONS).get();
    let quarantines0 = reg.counter(names::KV_AUDIT_QUARANTINES).get();
    let evidence0 = reg.counter(names::KV_AUDIT_EVIDENCE).get();

    let q = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is valid");
    let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"audit-harness")
        .quorum(q)
        .config(scenario_transport())
        .start()
        .expect("start audit cluster");
    let audit = cluster.audit_log();
    audit.register_writers([WriterId(1), WriterId(2)]);
    // Ground truth for the false-accusation counter: replicas that stay
    // honest through both injected legs.
    audit.expect_correct([ServerId(0), ServerId(1), ServerId(4)]);
    let keys: Vec<Vec<u8>> = (0..cfg.keys.max(1))
        .map(|k| format!("audit-k{k}").into_bytes())
        .collect();
    let executor = |audit: &std::sync::Arc<AuditLog>| {
        Executor::new(keys.clone(), OP_RETRIES, scenario_transport()).audited(audit.clone())
    };
    let mut exec = executor(&audit);
    let schedules = legs(cfg);
    let [fabricator, equivocator, enforce, chaos] = &schedules;
    let mut legs = Vec::with_capacity(3);

    // Leg 1 — Fabricator: forged tags carry an unregistered writer id, so
    // every attested lie is a self-signed inadmissible-tag confession.
    let leg = ("fabricator", Some(FABRICATOR), fabricator);
    legs.push(run_leg(&mut exec, &mut cluster, &audit, leg, cfg.ops));

    // Leg 2 — Equivocator, with its forged writer id *registered*: the
    // inadmissible-tag shortcut is closed, so conviction must come from
    // two readers pooling contradictory authentic links at one tag.
    audit.register_writers([EQUIVOCATOR_FORGED_WRITER]);
    let leg = ("equivocator", Some(EQUIVOCATOR), equivocator);
    legs.push(run_leg(&mut exec, &mut cluster, &audit, leg, cfg.ops));

    // Offline checks on everything filed so far: the log's own reverify
    // pass, plus an explicit wire round trip per record.
    let evidence = audit.evidence();
    let offline_reverify_ok = audit.reverify().is_empty();
    let offline_roundtrip_ok = roundtrip_verifies(&evidence, &cluster, &audit);
    let inadmissible_charge = evidence
        .iter()
        .any(|e| e.charge == Charge::InadmissibleTag && e.accused == FABRICATOR);
    let equivocation_charge = evidence
        .iter()
        .any(|e| e.charge == Charge::Equivocation && e.accused == EQUIVOCATOR);

    // Consequence: quarantine + evict every convicted replica, then keep
    // the workload running against the successor membership. Each
    // conviction, in id order, is replaced by the next fresh id.
    let fleet0 = cluster.map().fleet().to_vec();
    let post = exec.run(&mut cluster, enforce);
    let fleet = cluster.map().fleet();
    let evicted = fleet0.iter().filter(|s| !fleet.contains(s));
    let evicted = evicted.zip(fleet.iter().filter(|s| !fleet0.contains(s)));
    let epoch_after_eviction = cluster.epoch();

    let suspicion_correct_max = [ServerId(0), ServerId(1), ServerId(4)]
        .iter()
        .map(|s| audit.suspicion(*s))
        .max()
        .unwrap_or(0);

    // Leg 3 — a fresh, fully-correct cluster behind corrupting chaos
    // proxies: drops, delays, corruption and truncation on every link.
    // MAC failures must surface as suspicion, never conviction.
    let chaos_spec = FaultSpec {
        kill_permille: 3,
        truncate_permille: 8,
        corrupt_permille: 40,
        drop_permille: 20,
        delay_permille: 20,
        delay_micros: (50, 500),
        classes: None,
    };
    let mut chaos_cluster = TcpKvCluster::builder(KvMode::Replicated, b"audit-chaos")
        .quorum(q)
        .config(scenario_transport())
        .chaos(FaultPlan::new(cfg.seed, chaos_spec))
        .start()
        .expect("start chaos cluster");
    let chaos_audit = chaos_cluster.audit_log();
    chaos_audit.register_writers([WriterId(1), WriterId(2)]);
    chaos_audit.expect_correct(q.servers());
    let leg = ("chaos-corruption", None, chaos);
    let mut chaos_exec = executor(&chaos_audit);
    legs.push(run_leg(
        &mut chaos_exec,
        &mut chaos_cluster,
        &chaos_audit,
        leg,
        cfg.ops,
    ));
    let chaos_convictions = chaos_audit.convictions().len() as u64;

    let report = AuditReport {
        seed: cfg.seed,
        legs,
        convictions: audit
            .convictions()
            .into_iter()
            .map(|(s, c)| (s.0, c.to_string()))
            .collect(),
        chaos_convictions,
        false_accusations: reg.counter(names::KV_AUDIT_FALSE_ACCUSATIONS).get() - fa0,
        evidence_total: reg.counter(names::KV_AUDIT_EVIDENCE).get() - evidence0,
        inadmissible_charge,
        equivocation_charge,
        offline_reverify_ok,
        offline_roundtrip_ok,
        quarantines: reg.counter(names::KV_AUDIT_QUARANTINES).get() - quarantines0,
        evicted: evicted.map(|(a, b)| (a.0, b.0)).collect(),
        epoch_after_eviction,
        post_eviction_ops: post.completed(),
        post_eviction_failures: post.failed(),
        suspicion_correct_max,
    };
    if !report.ok() {
        replay(AuditReport::NAME, cfg.seed, &schedules);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A down-scaled full run: both injected roles convicted on the right
    /// charges, the chaos leg convicts nobody, evidence survives the
    /// offline round trip, and eviction leaves a serving cluster.
    #[test]
    fn tiny_audit_convicts_and_acquits() {
        let cfg = AuditConfig {
            seed: 11,
            ops: 24,
            keys: 2,
        };
        let report = audit_run(&cfg);
        for l in &report.legs {
            eprintln!(
                "{}: {} ops, {} evidence, verdict {}",
                l.label, l.ops, l.evidence, l.verdict
            );
        }
        assert!(
            report.legs[0].convicted,
            "fabricator not convicted: {report:?}"
        );
        assert!(
            report.legs[1].convicted,
            "equivocator not convicted: {report:?}"
        );
        assert!(report.inadmissible_charge, "no inadmissible-tag evidence");
        assert!(report.equivocation_charge, "no equivocation evidence");
        assert_eq!(
            report.chaos_convictions, 0,
            "chaos convicted a correct replica"
        );
        assert_eq!(report.false_accusations, 0);
        assert!(report.offline_reverify_ok && report.offline_roundtrip_ok);
        assert_eq!(report.evicted.len(), 2, "conviction did not evict");
        assert!(report.post_eviction_ops > 0 && report.post_eviction_failures == 0);
        assert!(report.ok(), "{report:?}");
    }
}
