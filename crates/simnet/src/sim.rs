//! The discrete-event simulation engine.
//!
//! [`Sim`] owns the event queue, the server behaviors, the client actors
//! and the recorded [`History`]. Determinism: all scheduling decisions
//! derive from the seed and the insertion order, so a run is exactly
//! reproducible.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

use safereg_common::codec::Wire;
use safereg_common::config::QuorumConfig;
use safereg_common::history::{History, OpHandle, ReadPath};
use safereg_common::ids::{ClientId, NodeId, ServerId};
use safereg_common::msg::{Envelope, Message, OpId};
use safereg_common::rng::DetRng;
use safereg_common::trace::{Phase, TraceCtx};
use safereg_core::op::{ClientOp, OpOutput};
use safereg_obs::metrics::{Registry, Snapshot};
use safereg_obs::span::{self, SlowEvidence, SpanKind, SpanLog, SpanRecord};
use safereg_obs::trace::MsgClass;

use crate::behavior::ServerBehavior;
use crate::delay::{op_of, DelayPolicy};
use crate::driver::{Action, ClientDriver, Plan, StartRule};
use crate::event::{Event, EventKind, SimTime};

/// Safety valve: a simulation aborts after this many events (a protocol
/// bug that floods messages would otherwise loop forever).
const MAX_EVENTS: u64 = 20_000_000;

struct Actor {
    driver: ClientDriver,
    plans: VecDeque<Plan>,
    current: Option<InFlight>,
}

struct InFlight {
    op: Box<dyn ClientOp>,
    handle: OpHandle,
    /// When the operation's current round started, for quorum-wait timing.
    phase_start: SimTime,
}

/// Messages one server received and sent during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerTally {
    /// Messages delivered to the server.
    pub received: u64,
    /// Messages the server emitted in response.
    pub sent: u64,
}

/// Aggregate results of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Simulated time of the last processed event.
    pub end_time: SimTime,
    /// Events processed.
    pub events: u64,
    /// Messages sent (all kinds).
    pub messages: u64,
    /// Wire bytes sent (sum of encoded message sizes).
    pub bytes: u64,
    /// Operations that completed.
    pub completed_ops: usize,
    /// Operations still incomplete at the end (starved or still planned).
    pub incomplete_ops: usize,
    /// Reads that completed on the paper's fast path (freshly witnessed
    /// value on the protocol's normal rounds).
    pub fast_reads: u64,
    /// Reads that completed on the slow fallback path.
    pub slow_reads: u64,
    /// Messages delivered after the operation they belonged to had already
    /// completed (stragglers — including scripted holds that landed before
    /// the deadline).
    pub late_messages: u64,
    /// Messages still in flight when the report was taken (held past the
    /// deadline or orphaned by a `run_until` cut).
    pub undelivered_messages: u64,
    /// Per-server message tallies.
    pub per_server: BTreeMap<ServerId, ServerTally>,
}

impl RunReport {
    /// Fraction of completed reads that took the fast path, or `None` when
    /// the run classified no reads.
    pub fn fast_read_ratio(&self) -> Option<f64> {
        let total = self.fast_reads + self.slow_reads;
        (total > 0).then(|| self.fast_reads as f64 / total as f64)
    }
}

/// A deterministic simulation of one deployment.
pub struct Sim {
    cfg: QuorumConfig,
    time: SimTime,
    seq: u64,
    events: u64,
    queue: BinaryHeap<Event>,
    rng: DetRng,
    delay: Box<dyn DelayPolicy>,
    servers: BTreeMap<ServerId, Box<dyn ServerBehavior>>,
    actors: BTreeMap<ClientId, Actor>,
    history: History,
    /// Maps live operations to their history handles for cost accounting.
    op_handles: BTreeMap<OpId, OpHandle>,
    messages: u64,
    bytes: u64,
    /// Per-run metrics, stamped in virtual time so runs reproduce
    /// bit-for-bit from their seed.
    registry: Arc<Registry>,
    /// Causal span capture: when set, sampled operations emit
    /// [`SpanRecord`]s stamped with **virtual ticks** into the log, so an
    /// identically-seeded run reproduces the trace stream byte for byte.
    spans: Option<(Arc<SpanLog>, u16)>,
    fast_reads: u64,
    slow_reads: u64,
    late_messages: u64,
    per_server: BTreeMap<ServerId, ServerTally>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("cfg", &self.cfg)
            .field("time", &self.time)
            .field("servers", &self.servers.len())
            .field("clients", &self.actors.len())
            .finish()
    }
}

impl Sim {
    /// Creates a simulation with the given delay policy and seed.
    pub fn new(cfg: QuorumConfig, seed: u64, delay: Box<dyn DelayPolicy>) -> Self {
        // Eager registration: every `sim.*` series a run can emit exists
        // (at zero) from the first snapshot, so rendered JSONL dumps keep
        // one schema regardless of which paths a particular seed, protocol
        // or fault mix happens to exercise.
        let registry = Arc::new(Registry::new());
        for class in MsgClass::ALL {
            registry.counter(&format!("sim.sent.{class}"));
            registry.counter(&format!("sim.sent_bytes.{class}"));
        }
        registry.counter("sim.msgs.late");
        registry.counter("sim.reads.fast");
        registry.counter("sim.reads.slow");
        registry.counter("sim.read.validation_failures");
        registry.histogram("sim.quorum_wait");
        registry.histogram("sim.read.latency.fast");
        registry.histogram("sim.read.latency.slow");
        registry.histogram("sim.write.latency");
        registry.gauge("sim.read.fast_ratio_permille");
        Sim {
            cfg,
            time: 0,
            seq: 0,
            events: 0,
            queue: BinaryHeap::new(),
            rng: DetRng::seed_from(seed),
            delay,
            servers: BTreeMap::new(),
            actors: BTreeMap::new(),
            history: History::new(),
            op_handles: BTreeMap::new(),
            messages: 0,
            bytes: 0,
            registry,
            spans: None,
            fast_reads: 0,
            slow_reads: 0,
            late_messages: 0,
            per_server: BTreeMap::new(),
        }
    }

    /// The run's metric registry (virtual-time, owned by this simulation).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A deterministic snapshot of the run's metrics.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Installs a causal span log: operations whose derived trace id
    /// passes `sample_permille` head-sampling emit [`SpanRecord`]s into
    /// `log`, stamped with virtual ticks (the deterministic half of the
    /// caller-stamped clock rule — the span module itself never reads a
    /// clock, so a seed reproduces its trace stream bit for bit).
    pub fn set_span_log(&mut self, log: Arc<SpanLog>, sample_permille: u16) {
        self.spans = Some((log, sample_permille));
    }

    /// The trace context of `op` under the installed sampling rate, or
    /// [`TraceCtx::NONE`] when no span log is installed. Pure: every call
    /// site derives the same context from the same operation id.
    fn trace_of(&self, op: &OpId) -> TraceCtx {
        match &self.spans {
            Some((_, permille)) => TraceCtx::for_op(op, *permille),
            None => TraceCtx::NONE,
        }
    }

    fn emit_span(&self, rec: SpanRecord) {
        if let Some((log, _)) = &self.spans {
            use safereg_obs::span::SpanSink;
            log.emit(rec);
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &QuorumConfig {
        &self.cfg
    }

    /// Installs a server behavior.
    ///
    /// # Panics
    ///
    /// Panics if a behavior for the same server is already installed.
    pub fn add_server(&mut self, behavior: Box<dyn ServerBehavior>) {
        let id = behavior.id();
        let prev = self.servers.insert(id, behavior);
        assert!(prev.is_none(), "duplicate behavior for {id}");
        self.per_server.insert(id, ServerTally::default());
    }

    /// Installs a client with its operation plan. The first plan entry is
    /// scheduled immediately (absolute `At` or `AfterPrevious` measured
    /// from time 0).
    pub fn add_client(&mut self, driver: ClientDriver, plans: Vec<Plan>) {
        let id = driver.client_id();
        let actor = Actor {
            driver,
            plans: plans.into(),
            current: None,
        };
        let first_start = actor.plans.front().map(|p| p.start);
        let prev = self.actors.insert(id, actor);
        assert!(prev.is_none(), "duplicate client {id}");
        if let Some(start) = first_start {
            let at = match start {
                StartRule::At(t) => t,
                StartRule::AfterPrevious { think } => think,
            };
            self.push_event(at, EventKind::Invoke(id));
        }
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { at, seq, kind });
    }

    /// Sends an envelope through the delay policy, with cost accounting.
    fn send(&mut self, env: Envelope) {
        let wire = env.msg.wire_len() as u64;
        self.messages += 1;
        self.bytes += wire;
        if let Some(op) = op_of(&env.msg) {
            if let Some(handle) = self.op_handles.get(&op) {
                self.history.add_cost(*handle, 0, 1, wire);
            }
        }
        let class = MsgClass::of(&env.msg);
        self.registry.counter(&format!("sim.sent.{class}")).inc();
        self.registry
            .counter(&format!("sim.sent_bytes.{class}"))
            .add(wire);
        if let NodeId::Server(src) = env.src {
            if let Some(tally) = self.per_server.get_mut(&src) {
                tally.sent += 1;
            }
        }
        let delay = self.delay.delay(self.time, &env, &mut self.rng);
        let at = self.time.saturating_add(delay.0.max(1));
        // One span segment per sampled message, its duration the link
        // delay the policy just rolled: client requests are `rpc` legs at
        // hop 0, server responses `reply` legs at hop 1.
        if self.spans.is_some() {
            if let Some(op) = op_of(&env.msg) {
                let root = self.trace_of(&op);
                if root.is_sampled() {
                    let (ctx, node) = match env.src {
                        NodeId::Client(c) => (root.with_phase(Phase::Rpc), span::node::client(c)),
                        NodeId::Server(s) => (root.hopped(Phase::Reply), span::node::server(s.0)),
                    };
                    self.emit_span(SpanRecord::new(
                        ctx,
                        SpanKind::Segment,
                        self.time,
                        at - self.time,
                        node,
                        wire as u32,
                    ));
                }
            }
        }
        self.push_event(at, EventKind::Deliver(env));
    }

    fn send_all(&mut self, envs: Vec<Envelope>) {
        for env in envs {
            self.send(env);
        }
    }

    /// Runs until the queue drains (or the event cap trips).
    pub fn run(&mut self) -> RunReport {
        self.run_until(SimTime::MAX)
    }

    /// Runs until no event remains at or before `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunReport {
        while let Some(next_at) = self.queue.peek().map(|e| e.at) {
            if next_at > deadline {
                break;
            }
            let event = self.queue.pop().expect("peeked");
            self.time = event.at;
            self.events += 1;
            assert!(
                self.events <= MAX_EVENTS,
                "event cap exceeded: runaway simulation"
            );
            match event.kind {
                EventKind::Invoke(client) => self.invoke(client),
                EventKind::Deliver(env) => self.deliver(env),
            }
        }
        self.report()
    }

    fn invoke(&mut self, client: ClientId) {
        let actor = self
            .actors
            .get_mut(&client)
            .expect("invoke for unknown client");
        assert!(
            actor.current.is_none(),
            "client {client} invoked while an operation is in flight (plan overlap)"
        );
        let plan = match actor.plans.pop_front() {
            Some(p) => p,
            None => return,
        };
        let mut op = actor.driver.begin(&plan.action);
        let op_id = op.op_id();
        let handle = match &plan.action {
            Action::Write(v) => self.history.begin_write(op_id, v.clone(), self.time),
            Action::Read => self.history.begin_read(op_id, self.time),
        };
        self.op_handles.insert(op_id, handle);
        // Field-disjoint from the live `actor` borrow, so inline rather
        // than going through `trace_of`/`emit_span`.
        if let Some((log, permille)) = &self.spans {
            use safereg_obs::span::SpanSink;
            let root = TraceCtx::for_op(&op_id, *permille);
            if root.is_sampled() {
                log.emit(SpanRecord::new(
                    root.with_phase(Phase::ClientOp),
                    SpanKind::Start,
                    self.time,
                    0,
                    span::node::client(client),
                    0,
                ));
            }
        }
        let first = op.start();
        actor.current = Some(InFlight {
            op,
            handle,
            phase_start: self.time,
        });
        self.send_all(first);
    }

    /// Counts a delivery that arrived after its operation finished.
    fn note_late(&mut self) {
        self.late_messages += 1;
        self.registry.counter("sim.msgs.late").inc();
    }

    fn deliver(&mut self, env: Envelope) {
        match env.dst {
            NodeId::Server(sid) => {
                if let Some(tally) = self.per_server.get_mut(&sid) {
                    tally.received += 1;
                }
                let out = match self.servers.get_mut(&sid) {
                    Some(behavior) => behavior.on_envelope(self.time, &env, &mut self.rng),
                    None => Vec::new(), // no such server: message falls on the floor
                };
                self.send_all(out);
            }
            NodeId::Client(cid) => {
                let msg = match &env.msg {
                    Message::ToClient(m) => m.clone(),
                    _ => return, // only server responses reach clients
                };
                let from = match env.src.as_server() {
                    Some(s) => s,
                    None => return,
                };
                // A response is a straggler when the client has nothing in
                // flight, or the in-flight operation is not the one being
                // answered (the answered one completed earlier and would
                // ignore the message anyway).
                let late = match self.actors.get(&cid) {
                    Some(a) => match &a.current {
                        Some(f) => f.op.op_id() != msg.op(),
                        None => true,
                    },
                    None => return,
                };
                if late {
                    self.note_late();
                    return;
                }
                let actor = self.actors.get_mut(&cid).expect("checked above");
                let inflight = actor.current.as_mut().expect("checked above");
                let rounds_before = inflight.op.rounds();
                let follow_up = inflight.op.on_message(from, &msg);
                let done = inflight.op.output();
                // A new round started: the previous quorum wait is over.
                if done.is_none() && inflight.op.rounds() > rounds_before {
                    let wait = self.time - inflight.phase_start;
                    inflight.phase_start = self.time;
                    self.registry.histogram("sim.quorum_wait").record(wait);
                }
                // Borrow of actor ends here; route follow-ups and completion.
                if let Some(output) = done {
                    let finished = actor.current.take().expect("in flight");
                    let rounds = finished.op.rounds();
                    let op_id = finished.op.op_id();
                    actor.driver.absorb(&output);
                    // Schedule the next plan.
                    let next = actor.plans.front().map(|p| p.start);
                    let now = self.time;
                    if let Some(start) = next {
                        let at = match start {
                            StartRule::At(t) => t.max(now + 1),
                            StartRule::AfterPrevious { think } => now + think.max(1),
                        };
                        self.push_event(at, EventKind::Invoke(cid));
                    }
                    // Record completion.
                    self.history.add_cost(finished.handle, rounds, 0, 0);
                    match output {
                        OpOutput::Written { tag } => {
                            self.history.complete_write(finished.handle, tag, now);
                        }
                        OpOutput::Read { value, tag } => {
                            self.history.complete_read(finished.handle, value, tag, now);
                        }
                    }
                    self.op_handles.remove(&op_id);
                    // Semi-fast-path accounting (virtual-time metrics).
                    let latency = self.history.get(finished.handle).latency().unwrap_or(0);
                    let path = finished.op.read_path();
                    let failures = finished.op.validation_failures();
                    self.registry
                        .histogram("sim.quorum_wait")
                        .record(now - finished.phase_start);
                    match path {
                        Some(ReadPath::Fast) => {
                            self.fast_reads += 1;
                            self.registry.counter("sim.reads.fast").inc();
                            self.registry
                                .histogram("sim.read.latency.fast")
                                .record(latency);
                        }
                        Some(ReadPath::Slow) => {
                            self.slow_reads += 1;
                            self.registry.counter("sim.reads.slow").inc();
                            self.registry
                                .histogram("sim.read.latency.slow")
                                .record(latency);
                        }
                        None if finished.op.is_write() => {
                            self.registry.histogram("sim.write.latency").record(latency);
                        }
                        None => {} // reads without the fast/slow distinction
                    }
                    if failures > 0 {
                        self.registry
                            .counter("sim.read.validation_failures")
                            .add(u64::from(failures));
                    }
                    if let Some((log, permille)) = &self.spans {
                        use safereg_obs::span::SpanSink;
                        let root = TraceCtx::for_op(&op_id, *permille);
                        if root.is_sampled() {
                            // A slow read gets its concrete cause from the
                            // evidence the virtual run can see: failed
                            // validations mean a Byzantine stale ack,
                            // anything else here is the protocol's honest
                            // second phase.
                            let cause = match path {
                                Some(ReadPath::Slow) => {
                                    Some(span::attribute_slow_read(&SlowEvidence {
                                        validation_failures: u64::from(failures),
                                        ..SlowEvidence::default()
                                    }))
                                }
                                _ => None,
                            };
                            let mut rec = SpanRecord::new(
                                root.with_phase(Phase::ClientOp),
                                SpanKind::End,
                                now,
                                latency,
                                span::node::client(cid),
                                rounds,
                            );
                            if let Some(c) = cause {
                                rec = rec.with_cause(c);
                            }
                            log.emit(rec);
                        }
                    }
                }
                self.send_all(follow_up);
            }
        }
    }

    fn report(&self) -> RunReport {
        let completed = self
            .history
            .records()
            .iter()
            .filter(|r| r.is_complete())
            .count();
        let undelivered = self
            .queue
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Deliver(_)))
            .count() as u64;
        // Publish the run's central observable as a gauge so metric dumps
        // carry it without needing the report object.
        if let Some(permille) =
            (self.fast_reads * 1000).checked_div(self.fast_reads + self.slow_reads)
        {
            self.registry
                .gauge("sim.read.fast_ratio_permille")
                .set(permille);
        }
        RunReport {
            end_time: self.time,
            events: self.events,
            messages: self.messages,
            bytes: self.bytes,
            completed_ops: completed,
            incomplete_ops: self.history.len() - completed,
            fast_reads: self.fast_reads,
            slow_reads: self.slow_reads,
            late_messages: self.late_messages,
            undelivered_messages: undelivered,
            per_server: self.per_server.clone(),
        }
    }

    /// The recorded execution history (for the checkers).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Total payload bytes currently stored across servers (E4).
    pub fn total_storage_bytes(&self) -> u64 {
        self.servers
            .values()
            .map(|b| b.storage_bytes() as u64)
            .sum()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{Correct, Silent};
    use crate::delay::{FixedDelay, UniformDelay};
    use crate::driver::Plan;
    use safereg_common::history::OpKind;
    use safereg_common::ids::{ReaderId, WriterId};
    use safereg_common::tag::Tag;
    use safereg_core::client::{BsrReader, BsrWriter};
    use safereg_core::server::ServerNode;

    fn bsr_sim(f: usize, seed: u64, byz_silent: usize) -> Sim {
        let cfg = QuorumConfig::minimal_bsr(f).unwrap();
        let mut sim = Sim::new(cfg, seed, Box::new(FixedDelay { hop: 10 }));
        for sid in cfg.servers() {
            if (sid.0 as usize) < byz_silent {
                sim.add_server(Box::new(Silent::new(sid)));
            } else {
                sim.add_server(Box::new(Correct::new(ServerNode::new_replicated(sid, cfg))));
            }
        }
        sim
    }

    #[test]
    fn write_then_read_roundtrip_on_fixed_network() {
        let mut sim = bsr_sim(1, 1, 0);
        let cfg = *sim.config();
        sim.add_client(
            ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
            vec![Plan::write_at(0, "hello")],
        );
        sim.add_client(
            ClientDriver::BsrReader(BsrReader::new(ReaderId(0), cfg)),
            vec![Plan::read_at(100)],
        );
        let report = sim.run();
        assert_eq!(report.completed_ops, 2);
        assert_eq!(report.incomplete_ops, 0);

        let read = sim.history().completed_reads().next().unwrap();
        match &read.kind {
            OpKind::Read {
                returned,
                returned_tag,
            } => {
                assert_eq!(returned.as_ref().unwrap().as_bytes(), b"hello");
                assert_eq!(returned_tag.unwrap(), Tag::new(1, WriterId(0)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Write: 2 rounds at 10 ticks/hop = 40 ticks; read: 1 round = 20.
        let write = sim.history().completed_writes().next().unwrap();
        assert_eq!(write.latency(), Some(40));
        assert_eq!(read.latency(), Some(20));
        assert_eq!(write.rounds, 2);
        assert_eq!(read.rounds, 1);
    }

    #[test]
    fn identically_seeded_runs_emit_identical_span_streams() {
        let run = |seed: u64| {
            let mut sim = bsr_sim(1, seed, 1);
            let cfg = *sim.config();
            let log = Arc::new(SpanLog::new());
            sim.set_span_log(Arc::clone(&log), 1000);
            sim.add_client(
                ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
                vec![Plan::write_at(0, "traced"), Plan::write_at(500, "again")],
            );
            sim.add_client(
                ClientDriver::BsrReader(BsrReader::new(ReaderId(0), cfg)),
                vec![Plan::read_at(100), Plan::read_at(600)],
            );
            sim.run();
            log.render_jsonl()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce the trace byte for byte");
        assert!(
            a.lines().any(|l| l.contains("\"phase\":\"client_op\"")),
            "root spans present: {a}"
        );
        assert!(
            a.lines().any(|l| l.contains("\"phase\":\"rpc\"")),
            "per-message rpc legs present: {a}"
        );
        // Virtual stamps only: every record's time is a small tick count,
        // not wall-clock microseconds since the epoch.
        let log_sampled_off = {
            let mut sim = bsr_sim(1, 7, 0);
            let cfg = *sim.config();
            let log = Arc::new(SpanLog::new());
            sim.set_span_log(Arc::clone(&log), 0);
            sim.add_client(
                ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
                vec![Plan::write_at(0, "untraced")],
            );
            sim.run();
            log.records().len()
        };
        assert_eq!(log_sampled_off, 0, "permille 0 samples nothing");
    }

    #[test]
    fn liveness_with_f_silent_servers() {
        let mut sim = bsr_sim(1, 2, 1); // one silent Byzantine server
        let cfg = *sim.config();
        sim.add_client(
            ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
            vec![Plan::write_at(0, "v")],
        );
        sim.add_client(
            ClientDriver::BsrReader(BsrReader::new(ReaderId(0), cfg)),
            vec![Plan::read_at(200)],
        );
        let report = sim.run();
        assert_eq!(
            report.completed_ops, 2,
            "Theorem 1: live with at most f faulty"
        );
    }

    #[test]
    fn no_liveness_beyond_f_silent_servers() {
        let mut sim = bsr_sim(1, 3, 2); // two silent servers exceed f = 1
        let cfg = *sim.config();
        sim.add_client(
            ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
            vec![Plan::write_at(0, "v")],
        );
        let report = sim.run();
        assert_eq!(report.completed_ops, 0, "cannot gather n - f responses");
        assert_eq!(report.incomplete_ops, 1);
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let run = |seed| {
            let mut sim = bsr_sim(1, seed, 0);
            let cfg = *sim.config();
            sim.add_client(
                ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
                vec![
                    Plan::write_at(0, "a"),
                    Plan {
                        start: StartRule::AfterPrevious { think: 5 },
                        action: Action::Write(Value::from("b")),
                    },
                ],
            );
            sim.add_client(
                ClientDriver::BsrReader(BsrReader::new(ReaderId(0), cfg)),
                vec![
                    Plan::read_at(33),
                    Plan {
                        start: StartRule::AfterPrevious { think: 7 },
                        action: Action::Read,
                    },
                ],
            );
            let report = sim.run();
            (report, sim.history().clone())
        };
        // Use a jittery network so the rng actually matters.
        let jittery = |seed| {
            let cfg = QuorumConfig::minimal_bsr(1).unwrap();
            let mut sim = Sim::new(cfg, seed, Box::new(UniformDelay { lo: 1, hi: 50 }));
            for sid in cfg.servers() {
                sim.add_server(Box::new(Correct::new(ServerNode::new_replicated(sid, cfg))));
            }
            sim.add_client(
                ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
                vec![Plan::write_at(0, "a")],
            );
            sim.add_client(
                ClientDriver::BsrReader(BsrReader::new(ReaderId(0), cfg)),
                vec![Plan::read_at(3)],
            );
            let report = sim.run();
            (report, sim.history().clone())
        };
        assert_eq!(run(7), run(7));
        assert_eq!(jittery(9), jittery(9));
        assert_ne!(jittery(9).0.end_time, jittery(10).0.end_time);
    }

    use safereg_common::value::Value;

    #[test]
    fn closed_loop_plans_chain() {
        let mut sim = bsr_sim(1, 4, 0);
        let cfg = *sim.config();
        let plans: Vec<Plan> = (0..5)
            .map(|_| Plan {
                start: StartRule::AfterPrevious { think: 3 },
                action: Action::Read,
            })
            .collect();
        sim.add_client(
            ClientDriver::BsrReader(BsrReader::new(ReaderId(0), cfg)),
            plans,
        );
        let report = sim.run();
        assert_eq!(report.completed_ops, 5);
    }

    #[test]
    fn run_until_stops_at_the_deadline_and_resumes() {
        let mut sim = bsr_sim(1, 8, 0);
        let cfg = *sim.config();
        sim.add_client(
            ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
            vec![Plan::write_at(0, "resumable")],
        );
        // Stop mid-write: the get-tag responses land at t = 20, the write
        // needs t = 40.
        let partial = sim.run_until(25);
        assert_eq!(partial.completed_ops, 0);
        assert_eq!(partial.incomplete_ops, 1);
        assert!(sim.now() <= 25);
        // Resuming finishes the operation deterministically.
        let done = sim.run();
        assert_eq!(done.completed_ops, 1);
        assert_eq!(done.incomplete_ops, 0);
    }

    #[test]
    fn cost_accounting_attributes_messages() {
        let mut sim = bsr_sim(1, 5, 0);
        let cfg = *sim.config();
        sim.add_client(
            ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
            vec![Plan::write_at(0, "payload")],
        );
        let report = sim.run();
        // Write: 5 queries + 5 tag responses + 5 puts + 5 acks = 20 msgs.
        assert_eq!(report.messages, 20);
        let write = sim.history().completed_writes().next().unwrap();
        assert_eq!(write.msgs, 20);
        assert!(write.bytes > 0);
        assert_eq!(report.bytes, write.bytes);
    }

    #[test]
    fn quiescent_read_is_fast_in_report_and_metrics() {
        let mut sim = bsr_sim(1, 11, 0);
        let cfg = *sim.config();
        sim.add_client(
            ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
            vec![Plan::write_at(0, "x")],
        );
        sim.add_client(
            ClientDriver::BsrReader(BsrReader::new(ReaderId(0), cfg)),
            vec![Plan::read_at(100), Plan::read_at(200)],
        );
        let report = sim.run();
        assert_eq!((report.fast_reads, report.slow_reads), (2, 0));
        assert_eq!(report.fast_read_ratio(), Some(1.0));
        let snap = sim.metrics_snapshot();
        assert_eq!(snap.counter("sim.reads.fast"), Some(2));
        assert_eq!(snap.gauge("sim.read.fast_ratio_permille"), Some(1000));
        assert_eq!(
            snap.histogram("sim.read.latency.fast").unwrap().count,
            2,
            "both read latencies recorded"
        );
        assert_eq!(snap.histogram("sim.write.latency").unwrap().max, 40);
        assert!(snap.counter("sim.sent.query_data").unwrap() == 10);
    }

    #[test]
    fn per_server_tallies_cover_all_traffic() {
        let mut sim = bsr_sim(1, 12, 0);
        let cfg = *sim.config();
        sim.add_client(
            ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
            vec![Plan::write_at(0, "t")],
        );
        let report = sim.run();
        assert_eq!(report.per_server.len(), 5);
        for tally in report.per_server.values() {
            // Each server gets query-tag + put-data and answers both.
            assert_eq!(
                *tally,
                ServerTally {
                    received: 2,
                    sent: 2
                }
            );
        }
        let received: u64 = report.per_server.values().map(|t| t.received).sum();
        let sent: u64 = report.per_server.values().map(|t| t.sent).sum();
        assert_eq!(received + sent, report.messages);
        assert_eq!(report.undelivered_messages, 0);
        // The fifth put-ack lands after the n-f = 4 quorum already
        // completed the write, so it is accounted as late.
        assert_eq!(report.late_messages, 1);
    }

    #[test]
    fn straggler_responses_count_as_late() {
        use crate::delay::{Delay, Matcher, Rule, Scripted};
        // Server 4's responses take 500 ticks; every operation completes
        // on the other four servers long before they land.
        let cfg = QuorumConfig::minimal_bsr(1).unwrap();
        let rules = vec![Rule {
            matcher: Matcher::any().from_node(ServerId(4)),
            delay: Delay::after(500),
        }];
        let mut sim = Sim::new(cfg, 13, Box::new(Scripted::over_fixed(rules, 10)));
        for sid in cfg.servers() {
            sim.add_server(Box::new(Correct::new(ServerNode::new_replicated(sid, cfg))));
        }
        sim.add_client(
            ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
            vec![Plan::write_at(0, "v")],
        );
        sim.add_client(
            ClientDriver::BsrReader(BsrReader::new(ReaderId(0), cfg)),
            vec![Plan::read_at(100)],
        );
        let report = sim.run();
        assert_eq!(report.completed_ops, 2);
        // Server 4's tag-resp, put-ack and data-resp all arrive after
        // their operations completed.
        assert_eq!(report.late_messages, 3);
        assert_eq!(sim.metrics_snapshot().counter("sim.msgs.late"), Some(3));
    }

    #[test]
    fn undelivered_messages_reflect_a_deadline_cut() {
        let mut sim = bsr_sim(1, 14, 0);
        let cfg = *sim.config();
        sim.add_client(
            ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
            vec![Plan::write_at(0, "cut")],
        );
        // Stop while the five query-tag responses are still in flight.
        let partial = sim.run_until(15);
        assert_eq!(partial.undelivered_messages, 5);
        let done = sim.run();
        assert_eq!(done.undelivered_messages, 0);
    }

    #[test]
    fn span_stream_and_metric_dump_are_deterministic() {
        use safereg_obs::{render_jsonl, SpanLog};
        use std::sync::Arc;
        let run = || {
            let mut sim = bsr_sim(1, 15, 0);
            let cfg = *sim.config();
            let log = Arc::new(SpanLog::new());
            sim.set_span_log(Arc::clone(&log), 1000);
            sim.add_client(
                ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
                vec![Plan::write_at(0, "det")],
            );
            sim.add_client(
                ClientDriver::BsrReader(BsrReader::new(ReaderId(0), cfg)),
                vec![Plan::read_at(60)],
            );
            let report = sim.run();
            (
                report,
                render_jsonl(&sim.metrics_snapshot()),
                log.render_jsonl(),
            )
        };
        let (ra, dump_a, spans_a) = run();
        let (rb, dump_b, spans_b) = run();
        assert_eq!(ra, rb);
        assert_eq!(dump_a, dump_b, "metric dumps must be byte-identical");
        assert_eq!(spans_a, spans_b, "span streams must be byte-identical");
        assert!(!spans_a.is_empty());
        assert!(dump_a.contains("sim.read.fast_ratio_permille"));
    }

    #[test]
    fn storage_accounting_via_behaviors() {
        let mut sim = bsr_sim(1, 6, 0);
        let cfg = *sim.config();
        sim.add_client(
            ClientDriver::BsrWriter(BsrWriter::new(WriterId(0), cfg)),
            vec![Plan::write_at(0, "1234")],
        );
        sim.run();
        assert_eq!(sim.total_storage_bytes(), 5 * 4, "n replicas of 4 bytes");
    }
}
