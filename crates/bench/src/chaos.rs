//! Self-healing chaos scenario: the deployed TCP stack under a seeded
//! adversary.
//!
//! A loopback KV cluster is wrapped in
//! [`safereg_transport::chaos::ChaosNet`] proxies driven by a seeded
//! [`FaultPlan`] (frames dropped, delayed, corrupted, truncated,
//! connections killed), while the run also severs and blackholes up to
//! `f` servers mid-workload. The transport's lazy reconnects and circuit
//! breakers and the client's retry passes must mask all of it: every
//! operation completes, the recorded history passes the checker's safety
//! predicates, and the metrics show the healing actually happened
//! (nonzero reconnects and breaker transitions). The same seed always
//! yields the same fault schedule — asserted via
//! [`FaultPlan::fingerprint`].

use safereg_checker::CheckSummary;
use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::history::History;
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_common::msg::OpId;
use safereg_common::value::Value;
use safereg_kv::{KvClient, KvMode, TcpKvCluster, TcpKvTransport};
use safereg_obs::names;
use safereg_obs::trace::wall_micros;
use safereg_transport::chaos::{ChaosNet, Direction, FaultPlan, FaultSpec};

/// Outcome of one seeded chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The adversary seed.
    pub seed: u64,
    /// Operations attempted (writes + reads).
    pub ops_attempted: usize,
    /// Operations that completed (possibly after client-level retries).
    pub ops_completed: usize,
    /// Link reconnections performed by the transport during the run.
    pub reconnects: u64,
    /// Circuit-breaker state changes during the run.
    pub breaker_transitions: u64,
    /// Backoff waits during the run: link cooldowns after a failed
    /// exchange plus the client's in-operation retry passes.
    pub backoff_waits: u64,
    /// Frames the proxies forwarded untouched.
    pub frames_forwarded: u64,
    /// Frames the proxies faulted (dropped/delayed/corrupted/truncated)
    /// plus connections killed at a frame boundary.
    pub faults_injected: u64,
    /// Every completed op passed the checker's safety predicates.
    pub safe: bool,
    /// Write-order violations found by the checker.
    pub order_violations: usize,
    /// Rebuilding the plan from the same seed reproduced the identical
    /// fault schedule bytes.
    pub schedule_reproducible: bool,
}

impl ChaosReport {
    /// The acceptance predicate the CI smoke run greps for.
    pub fn self_healing_ok(&self) -> bool {
        self.ops_completed == self.ops_attempted
            && self.safe
            && self.order_violations == 0
            && self.reconnects > 0
            && self.breaker_transitions > 0
            && self.schedule_reproducible
    }
}

const FAULT_KINDS: [&str; 5] = ["dropped", "delayed", "corrupted", "truncated", "killed"];

fn chaos_fault_total() -> u64 {
    let reg = safereg_obs::global();
    FAULT_KINDS
        .iter()
        .map(|k| {
            reg.counter(&format!("{}.{k}", names::CHAOS_FAULT_PREFIX))
                .get()
        })
        .sum()
}

/// Runs the scenario: 24 alternating put/get operations on one key of an
/// `n = 5, f = 1` replicated cluster behind mildly hostile chaos proxies,
/// with one server severed and one blackholed-and-restored mid-run (never
/// more than `f = 1` down at once).
///
/// # Panics
///
/// Panics when the cluster or its proxies cannot be started —
/// environment failures, not scenario outcomes.
pub fn chaos_run(seed: u64) -> ChaosReport {
    const KEY: &[u8] = b"chaos";
    let reg = safereg_obs::global();
    let reconnects_before = reg.counter(names::KV_RECONNECTS).get();
    let transitions_before = reg.counter(names::KV_BREAKER_TRANSITIONS).get();
    let waits_before = reg.histogram(names::KV_BACKOFF_WAIT_MS).count();
    let forwarded_before = reg.counter(names::CHAOS_FORWARDED).get();
    let faults_before = chaos_fault_total();

    let cfg = QuorumConfig::minimal_bsr(1).expect("n = 5, f = 1 is valid");
    let cluster = TcpKvCluster::builder(KvMode::Replicated, b"chaos-bench")
        .quorum(cfg)
        .start()
        .expect("start cluster");
    let plan = FaultPlan::new(seed, FaultSpec::mild());
    let net = ChaosNet::wrap(&cluster.addrs(), &plan).expect("start chaos proxies");

    let config = TransportConfig::aggressive();
    let mut transport = TcpKvTransport::connect_with(&net.addrs(), cluster.chain().clone(), config);
    let mut client = KvClient::new(cfg, WriterId(0), ReaderId(0));
    client.set_policy(config);
    let mut history = History::new();

    let rounds = 12usize;
    let mut attempted = 0usize;
    let mut completed = 0usize;
    for i in 0..rounds {
        // Fault timeline, never more than f = 1 server down at once:
        // round 2 severs s1 (live connections die, the next exchange
        // reconnects); round 4 blackholes s2 (its breaker trips Open);
        // round 8 restores it (HalfOpen, then Closed on the first reply).
        match i {
            2 => net.sever(ServerId(1)),
            4 => net.set_blackhole(ServerId(2), true),
            8 => net.set_blackhole(ServerId(2), false),
            _ => {}
        }
        if (4..=8).contains(&i) {
            // The transport reconnects lazily, from inside an exchange, and
            // fails fast while a link cools down: let the cooldown lapse so
            // every one of these rounds really probes s2.
            std::thread::sleep(config.backoff.cap * 5 / 4);
        }
        let seq = i as u64 + 1;

        attempted += 1;
        let value = Value::from(format!("chaos-{seed}-{i}").into_bytes());
        let h = history.begin_write(OpId::new(WriterId(0), seq), value.clone(), wall_micros());
        if let Some(tag) = (0..3).find_map(|_| client.put(&mut transport, KEY, value.clone()).ok())
        {
            history.complete_write(h, tag, wall_micros());
            completed += 1;
        }

        attempted += 1;
        let h = history.begin_read(OpId::new(ReaderId(0), seq), wall_micros());
        if let Some((value, tag)) =
            (0..3).find_map(|_| client.get_with_tag(&mut transport, KEY).ok())
        {
            history.complete_read(h, value, tag, wall_micros());
            completed += 1;
        }
    }

    let summary = CheckSummary::check_all(&history);
    let dir = Direction::ClientToServer;
    let rebuilt = FaultPlan::new(seed, FaultSpec::mild());
    let schedule_reproducible = (0..cfg.n() as u16).all(|s| {
        plan.fingerprint(ServerId(s), 0, dir, 128) == rebuilt.fingerprint(ServerId(s), 0, dir, 128)
            && plan.fingerprint(ServerId(s), 1, Direction::ServerToClient, 128)
                == rebuilt.fingerprint(ServerId(s), 1, Direction::ServerToClient, 128)
    });

    ChaosReport {
        seed,
        ops_attempted: attempted,
        ops_completed: completed,
        reconnects: reg.counter(names::KV_RECONNECTS).get() - reconnects_before,
        breaker_transitions: reg.counter(names::KV_BREAKER_TRANSITIONS).get() - transitions_before,
        backoff_waits: reg.histogram(names::KV_BACKOFF_WAIT_MS).count() - waits_before,
        frames_forwarded: reg.counter(names::CHAOS_FORWARDED).get() - forwarded_before,
        faults_injected: chaos_fault_total() - faults_before,
        safe: summary.is_safe(),
        order_violations: summary.order.len(),
        schedule_reproducible,
    }
}
