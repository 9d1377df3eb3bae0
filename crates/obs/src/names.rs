//! Well-known metric names for the self-healing network path.
//!
//! The resilience layer spans two crates (`kv` and the chaos tooling in
//! `safereg-transport::chaos`); pinning the metric names
//! here keeps the producers and every consumer (tests, `scripts/ci.sh`,
//! the `__safereg/metrics` admin key) in agreement without string
//! duplication. All of these flow through the process-wide
//! [`crate::global`] registry.

/// KV transport: successful lazy reconnections.
pub const KV_RECONNECTS: &str = "kv.reconnects";

/// KV transport circuit breaker state changes, summed over all servers.
pub const KV_BREAKER_TRANSITIONS: &str = "kv.breaker.transitions";

/// Histogram of KV backoff waits (milliseconds).
pub const KV_BACKOFF_WAIT_MS: &str = "kv.backoff.wait_ms";

/// KV exchanges that failed because the server was unreachable (distinct
/// from a reachable server answering nothing, which is Byzantine silence).
pub const KV_EXCHANGE_UNREACHABLE: &str = "kv.exchange.unreachable";

/// Payload bytes memcpy'd while opening envelopes on the wire path. The
/// zero-copy decode keeps this at 0 for every relayed frame; a regression
/// that reintroduces an owned-`Vec<u8>` payload copy shows up here (and is
/// grep-gated in `scripts/ci.sh`).
pub const WIRE_BYTES_COPIED: &str = "wire.bytes_copied";

/// Server hosts: connections evicted for misbehaving at the socket level
/// (idle with no traffic, or stalled so writes time out), summed over all
/// reasons. Per-reason breakdowns live under [`eviction_counter`].
pub const SERVER_EVICTIONS: &str = "server.evictions";

/// Server hosts: replicas killed and respawned by a crash/restart
/// supervisor (`TcpKvCluster::restart` and friends).
pub const SERVER_RESTARTS: &str = "server.restarts";

/// Server hosts currently running a Byzantine behavior instead of the
/// honest protocol node (a gauge; role rotation moves it up and down).
pub const SERVER_BYZ_ACTIVE: &str = "server.byz.active";

/// Histogram of frames flushed per vectored batch write on a bounded
/// outbox drain (1 = no batching happened for that flush).
pub const TRANSPORT_BATCH_FRAMES: &str = "transport.batch.frames";

/// Chaos proxy: frames forwarded untouched.
pub const CHAOS_FORWARDED: &str = "chaos.frames.forwarded";

/// Chaos proxy: frames injected with a fault, by kind
/// (`chaos.frames.dropped`, `.delayed`, `.corrupted`, `.truncated`,
/// `.killed`).
pub const CHAOS_FAULT_PREFIX: &str = "chaos.frames";

/// Per-server KV link health gauge name (`0` Closed/healthy,
/// `1` HalfOpen, `2` Open).
pub fn link_state_gauge(server: u16) -> String {
    format!("kv.link.state.s{server}")
}

/// Per-reason eviction counter name (`server.evictions.idle`,
/// `server.evictions.stall`).
pub fn eviction_counter(reason: &str) -> String {
    format!("{}.{reason}", SERVER_EVICTIONS)
}

/// Current membership epoch a server host is serving (a gauge; every
/// reconfiguration step moves it up by one).
pub const KV_EPOCH_CURRENT: &str = "kv.epoch.current";

/// Frames a server rejected because their MAC-covered config stamp did not
/// match its current epoch (each one was answered with `WrongEpoch`).
pub const KV_EPOCH_STALE_FRAMES: &str = "kv.epoch.stale_frames";

/// Client-side configuration adoptions: a `WrongEpoch` redirect gathered
/// `f + 1` distinct votes for the same `(epoch, digest)` and the client
/// switched membership mid-operation.
pub const KV_EPOCH_ADOPTIONS: &str = "kv.epoch.adoptions";

/// Reconfiguration steps (add/remove/replace, one replica each) applied by
/// cluster orchestration.
pub const KV_EPOCH_RECONFIGS: &str = "kv.epoch.reconfigs";

/// Keys state-transferred into a joining, re-placed, or restarted replica
/// before it serves its epoch.
pub const KV_TRANSFER_KEYS: &str = "kv.reconfig.transfer.keys";

/// Evidence records filed into the audit log: each is a pair of authentic
/// chain links (or one inadmissible link) that proves misbehaviour.
pub const KV_AUDIT_EVIDENCE: &str = "kv.audit.evidence";

/// Convictions reached from evidence: a replica was proven Byzantine by
/// its own MAC-chained attestations.
pub const KV_AUDIT_CONVICTIONS: &str = "kv.audit.convictions";

/// Convictions of replicas the harness knows were correct — must stay 0;
/// any increment is a soundness bug in the audit layer.
pub const KV_AUDIT_FALSE_ACCUSATIONS: &str = "kv.audit.false_accusations";

/// Replicas quarantined (demoted to read-only) after a conviction, prior
/// to their eviction via reconfiguration.
pub const KV_AUDIT_QUARANTINES: &str = "kv.audit.quarantines";

/// Per-replica suspicion gauge (`kv.audit.suspicion.s3`): circumstantial
/// signals (cross-check mismatches, dropped/forged frames) that do not by
/// themselves convict.
pub fn audit_suspicion_gauge(server: u16) -> String {
    format!("kv.audit.suspicion.s{server}")
}

/// Hottest shard id observed by a sharded client (a gauge holding the
/// `ShardId` whose op counter currently leads).
pub const KV_SHARD_HOT: &str = "kv.shard.hot";

/// Op count of the hottest shard (the gauge [`KV_SHARD_HOT`] points at).
pub const KV_SHARD_HOT_OPS: &str = "kv.shard.hot.ops";

/// Per-shard completed-operation counter (`kv.shard.g3.ops`).
pub fn shard_ops_counter(shard: u16) -> String {
    format!("kv.shard.g{shard}.ops")
}

/// Per-shard read-path counter (`kv.shard.g3.reads.fast` / `.slow`).
/// `path` is `"fast"` or `"slow"`.
pub fn shard_reads_counter(shard: u16, path: &str) -> String {
    format!("kv.shard.g{shard}.reads.{path}")
}

/// Per-shard fast-read ratio gauge in permille
/// (`kv.shard.g3.fast_ratio_permille`).
pub fn shard_fast_ratio_gauge(shard: u16) -> String {
    format!("kv.shard.g{shard}.fast_ratio_permille")
}

/// Server-side per-shard dispatch counter (`kv.shard.g3.served`): requests a
/// host actually handled for that group. Deliberately distinct from the
/// client-owned [`shard_ops_counter`] series so in-process deployments
/// (client and server sharing one registry) never double-count.
pub fn shard_served_counter(shard: u16) -> String {
    format!("kv.shard.g{shard}.served")
}

/// Server-side inbound message counter by class (`kv.recv.query_tag` …);
/// `class` is `MsgClass::as_str()`.
pub fn kv_recv_counter(class: &str) -> String {
    format!("kv.recv.{class}")
}

/// Reactor runtime: event-loop threads currently running across all
/// hosts in the process (a gauge; proves thread count is O(reactors),
/// not O(connections)).
pub const REACTOR_THREADS: &str = "reactor.threads";

/// Reactor runtime: connections currently registered across all reactor
/// event loops in the process (a gauge).
pub const REACTOR_CONNS: &str = "reactor.conns";

/// Reactor runtime: readiness events dispatched (one per ready
/// connection per poll wake, wakeup tokens excluded).
pub const REACTOR_EVENTS: &str = "reactor.events";

/// Reactor runtime: explicit cross-thread wakeups delivered to an event
/// loop (accept hand-offs and shutdown, not socket readiness).
pub const REACTOR_WAKEUPS: &str = "reactor.wakeups";

/// Reactor runtime: accepted connections handed off to a reactor by the
/// accept-sharding layer.
pub const REACTOR_HANDOFFS: &str = "reactor.accept.handoffs";

/// Operations head-sampled into the trace layer (root contexts created
/// with a nonzero trace id).
pub const TRACE_SAMPLED_OPS: &str = "trace.sampled.ops";

/// Span records dropped because the flight-recorder ring lapped them
/// before a dump could read them (monotone, informational).
pub const TRACE_RING_LAPPED: &str = "trace.ring.lapped";

/// Flight-recorder dumps triggered (`trace.dump.violation`,
/// `.eviction`, `.watchdog`), summed over all reasons.
pub const TRACE_DUMPS: &str = "trace.dumps";

/// Per-reason flight-recorder dump counter (`trace.dump.violation` …).
pub fn trace_dump_counter(reason: &str) -> String {
    format!("trace.dump.{reason}")
}

/// Per-phase latency histogram for sampled spans
/// (`trace.phase.rpc.us` …); `phase` is `Phase::as_str()`.
pub fn trace_phase_hist(phase: &str) -> String {
    format!("trace.phase.{phase}.us")
}

/// Slow reads attributed to one concrete cause
/// (`kv.read.slow_cause.straggler_replica` …); `cause` is
/// `SlowCause::as_str()`.
pub fn slow_cause_counter(cause: &str) -> String {
    format!("kv.read.slow_cause.{cause}")
}

/// Exemplar gauge holding the most recent trace id attributed to a cause
/// (`kv.read.slow_cause.straggler_replica.exemplar`): joins the cause
/// histogram back to a concrete span tree in the flight recorder.
pub fn slow_cause_exemplar(cause: &str) -> String {
    format!("kv.read.slow_cause.{cause}.exemplar")
}

#[cfg(test)]
mod tests {
    #[test]
    fn gauge_names_are_stable() {
        assert_eq!(super::link_state_gauge(3), "kv.link.state.s3");
        assert_eq!(super::WIRE_BYTES_COPIED, "wire.bytes_copied");
    }

    #[test]
    fn shard_metric_names_are_stable() {
        assert_eq!(super::shard_ops_counter(3), "kv.shard.g3.ops");
        assert_eq!(
            super::shard_reads_counter(0, "fast"),
            "kv.shard.g0.reads.fast"
        );
        assert_eq!(
            super::shard_fast_ratio_gauge(7),
            "kv.shard.g7.fast_ratio_permille"
        );
        assert_eq!(super::KV_SHARD_HOT, "kv.shard.hot");
        assert_eq!(super::KV_SHARD_HOT_OPS, "kv.shard.hot.ops");
    }

    #[test]
    fn trace_metric_names_are_stable() {
        assert_eq!(super::shard_served_counter(3), "kv.shard.g3.served");
        assert_eq!(super::kv_recv_counter("query_tag"), "kv.recv.query_tag");
        assert_eq!(super::TRACE_SAMPLED_OPS, "trace.sampled.ops");
        assert_eq!(super::TRACE_RING_LAPPED, "trace.ring.lapped");
        assert_eq!(
            super::trace_dump_counter("violation"),
            "trace.dump.violation"
        );
        assert_eq!(
            super::trace_phase_hist("mutex_wait"),
            "trace.phase.mutex_wait.us"
        );
        assert_eq!(
            super::slow_cause_counter("straggler_replica"),
            "kv.read.slow_cause.straggler_replica"
        );
        assert_eq!(
            super::slow_cause_counter("reconfig_transfer"),
            "kv.read.slow_cause.reconfig_transfer"
        );
        assert_eq!(
            super::slow_cause_exemplar("byz_stale_ack"),
            "kv.read.slow_cause.byz_stale_ack.exemplar"
        );
    }

    #[test]
    fn epoch_metric_names_are_stable() {
        assert_eq!(super::KV_EPOCH_CURRENT, "kv.epoch.current");
        assert_eq!(super::KV_EPOCH_STALE_FRAMES, "kv.epoch.stale_frames");
        assert_eq!(super::KV_EPOCH_ADOPTIONS, "kv.epoch.adoptions");
        assert_eq!(super::KV_EPOCH_RECONFIGS, "kv.epoch.reconfigs");
        assert_eq!(super::KV_TRANSFER_KEYS, "kv.reconfig.transfer.keys");
    }

    #[test]
    fn audit_metric_names_are_stable() {
        assert_eq!(super::KV_AUDIT_EVIDENCE, "kv.audit.evidence");
        assert_eq!(super::KV_AUDIT_CONVICTIONS, "kv.audit.convictions");
        assert_eq!(
            super::KV_AUDIT_FALSE_ACCUSATIONS,
            "kv.audit.false_accusations"
        );
        assert_eq!(super::KV_AUDIT_QUARANTINES, "kv.audit.quarantines");
        assert_eq!(super::audit_suspicion_gauge(3), "kv.audit.suspicion.s3");
    }

    #[test]
    fn reactor_metric_names_are_stable() {
        assert_eq!(super::REACTOR_THREADS, "reactor.threads");
        assert_eq!(super::REACTOR_CONNS, "reactor.conns");
        assert_eq!(super::REACTOR_EVENTS, "reactor.events");
        assert_eq!(super::REACTOR_WAKEUPS, "reactor.wakeups");
        assert_eq!(super::REACTOR_HANDOFFS, "reactor.accept.handoffs");
    }

    #[test]
    fn eviction_counter_names_are_stable() {
        assert_eq!(super::eviction_counter("idle"), "server.evictions.idle");
        assert_eq!(super::eviction_counter("stall"), "server.evictions.stall");
        assert_eq!(super::SERVER_EVICTIONS, "server.evictions");
        assert_eq!(super::SERVER_RESTARTS, "server.restarts");
        assert_eq!(super::TRANSPORT_BATCH_FRAMES, "transport.batch.frames");
    }
}
