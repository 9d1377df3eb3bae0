//! Scenarios as data: a seeded [`Schedule`] of events, the one
//! [`Executor`] that runs it against a [`TcpKvCluster`], and the one
//! arrival/departure process ([`Arrivals`]).
//!
//! A schedule is an ordered list of [`Event`]s; an event's position in the
//! list is its logical clock. Ops run on one thread per client, each
//! client's ops in list order, judged by [`CheckedKeys`]. Cluster events
//! run one at a time, in order, on one supervisor thread, in one of two
//! modes:
//!
//! * **sync** — waits for every earlier op to complete, and every later op
//!   waits for it to finish (an epoch boundary: restore, scrub, convert).
//!   It must succeed: a failure panics with the schedule's text;
//! * **async** — starts once every earlier op has been issued, later ops
//!   are issued after it starts, and it runs beside them (a
//!   reconfiguration step whose overlapping ops are its "during" phase, a
//!   mid-epoch restart). Its result goes into the [`Record`] for the
//!   verdict to count.
//!
//! Every dependency points to a lower position, so a schedule cannot
//! deadlock. A scenario is a generator of schedules plus a verdict folded
//! from the executor's [`Record`]. Each schedule renders as text, one
//! event per line ([`Display`](fmt::Display)), and a failed verdict prints
//! the seed and that text ([`replay`]).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use safereg_common::config::TransportConfig;
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_common::msg::OpId;
use safereg_common::rng::DetRng;
use safereg_common::shard::ShardId;
use safereg_common::tag::Tag;
use safereg_common::value::Value;
use safereg_core::behavior::ByzRole;
use safereg_kv::{AuditLog, KvClient, TcpKvCluster, TcpKvTransport};
use safereg_transport::chaos::{FaultPlan, FaultSpec};

use crate::ops::{CheckedKeys, Judged};
use crate::runtime::proc_status;

/// Which register groups of a replica a [`Act::SetRole`] changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The whole replica, by the respawning [`TcpKvCluster::set_role`].
    Respawn,
    /// One group, live, by [`TcpKvCluster::set_shard_role`].
    Shard(ShardId),
    /// Every group the replica serves, live, each seeded with
    /// `seed ^ group`. The role follows the replica through `add`,
    /// `remove` and `replace` steps: a step that places a new group on it
    /// re-applies the role before the step counts as finished.
    Served,
}

/// What a cluster event does to the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// [`TcpKvCluster::crash`].
    Crash(ServerId),
    /// [`TcpKvCluster::restart`]: respawn honest and pull state back.
    Restart(ServerId),
    /// Replica, scope, the role it plays from now on, forgery seed.
    SetRole(ServerId, Scope, ByzRole, u64),
    /// [`TcpKvCluster::add_replica`].
    Add(ServerId),
    /// [`TcpKvCluster::remove_replica`].
    Remove(ServerId),
    /// [`TcpKvCluster::replace_replica`] (out, joiner).
    Replace(ServerId, ServerId),
    /// [`TcpKvCluster::set_plan`] with a [mild](FaultSpec::mild) plan from
    /// the seed, or none.
    SetPlan(Option<u64>),
    /// [`TcpKvCluster::enforce_verdicts`] with the executor's audit log.
    Enforce,
    /// Nothing: as a sync event, a point every earlier op completes
    /// before any later op starts.
    Barrier,
}

impl Act {
    /// Whether the act changes the membership (one epoch step).
    pub fn is_membership(self) -> bool {
        matches!(self, Act::Add(_) | Act::Remove(_) | Act::Replace(..))
    }

    /// Applies a membership act to `fleet`; other acts leave it alone.
    pub fn step_fleet(self, fleet: &mut Vec<ServerId>) {
        if let Act::Remove(out) | Act::Replace(out, _) = self {
            fleet.retain(|s| *s != out);
        }
        if let Act::Add(joiner) | Act::Replace(_, joiner) = self {
            fleet.push(joiner);
        }
    }
}

/// One entry of a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Client `.0` writes the value [`value_of`] its op count to key
    /// index `.1`.
    Put(u16, usize),
    /// Client `.0` reads key index `.1`, with its tag.
    Get(u16, usize),
    /// A sync cluster event (see the module docs).
    Sync(Act),
    /// An async cluster event (see the module docs).
    Async(Act),
}

/// A seeded, ordered list of events; position is the logical clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The seed the generator drew the schedule from.
    pub seed: u64,
    /// The events, in order.
    pub events: Vec<Event>,
}

impl Schedule {
    /// An empty schedule drawn from `seed`.
    pub fn new(seed: u64) -> Schedule {
        Schedule {
            seed,
            events: Vec::new(),
        }
    }

    /// Appends events.
    pub fn extend(&mut self, events: impl IntoIterator<Item = Event>) {
        self.events.extend(events);
    }

    /// Appends `ops`, placing each of `at` (op index, event) before the op
    /// with that index; events past the last op go at the end.
    pub fn interleave(&mut self, ops: Vec<Event>, mut at: Vec<(usize, Event)>) {
        at.sort_by_key(|(i, _)| *i);
        let mut at = at.into_iter().peekable();
        for (i, op) in ops.into_iter().enumerate() {
            while let Some((_, e)) = at.next_if(|(j, _)| *j <= i) {
                self.events.push(e);
            }
            self.events.push(op);
        }
        self.events.extend(at.map(|(_, e)| e));
    }
}

impl fmt::Display for Act {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Act::Crash(s) => write!(f, "crash {s}"),
            Act::Restart(s) => write!(f, "restart {s}"),
            Act::SetRole(sid, scope, role, seed) => {
                let role = role.label();
                match scope {
                    Scope::Respawn => write!(f, "set-role {sid} {role} {seed}"),
                    Scope::Shard(g) => write!(f, "set-role {sid}/{g} {role} {seed}"),
                    Scope::Served => write!(f, "set-role {sid}/* {role} {seed}"),
                }
            }
            Act::Add(s) => write!(f, "add {s}"),
            Act::Remove(s) => write!(f, "remove {s}"),
            Act::Replace(out, joiner) => write!(f, "replace {out} {joiner}"),
            Act::SetPlan(Some(seed)) => write!(f, "set-plan {seed}"),
            Act::SetPlan(None) => f.write_str("set-plan none"),
            Act::Enforce => f.write_str("enforce"),
            Act::Barrier => f.write_str("barrier"),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Put(c, k) => write!(f, "put c{c} k{k}"),
            Event::Get(c, k) => write!(f, "get c{c} k{k}"),
            Event::Sync(act) => write!(f, "sync {act}"),
            Event::Async(act) => write!(f, "async {act}"),
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed {}", self.seed)?;
        self.events.iter().try_for_each(|e| writeln!(f, "{e}"))
    }
}

/// Prints a failed scenario's seed and every schedule it ran, so the run
/// can be replayed and shrunk.
pub fn replay<'a>(name: &str, seed: u64, schedules: impl IntoIterator<Item = &'a Schedule>) {
    eprintln!("{name}: FAILED with seed {seed}; its schedules follow");
    for s in schedules {
        eprint!("{s}");
    }
}

/// The value client `client` writes in its `seq`-th op.
pub fn value_of(client: u16, seq: u64) -> Value {
    Value::from(format!("c{client}:{seq}").into_bytes())
}

/// The one arrival/departure process: joiners arrive under fresh ids, only
/// joiners depart or are swapped out, and the gap before each event is
/// drawn in ops around `mean_gap` — Kumar–Welch's churn rate
/// (arXiv:1910.06716) as ops per membership event. Base members, Byzantine
/// ones included, never leave, so faults stay ≤ `f` per group; the
/// executor runs membership events one at a time, so no group ever holds
/// two unhydrated placements.
#[derive(Debug)]
pub struct Arrivals {
    rng: DetRng,
    mean_gap: u64,
    next_id: u16,
    joiners: Vec<ServerId>,
}

impl Arrivals {
    /// A process drawing events every `mean_gap` ops on average, joiners
    /// numbered from 100.
    pub fn new(seed: u64, mean_gap: u64) -> Arrivals {
        Arrivals {
            rng: DetRng::seed_from(seed),
            mean_gap: mean_gap.max(2),
            next_id: 100,
            joiners: Vec::new(),
        }
    }

    /// Draws the next event and the ops to run before it. Arrive when
    /// nobody can depart, depart or swap when two joiners are live (so the
    /// fleet grows by at most two), otherwise draw among all three.
    pub fn next_event(&mut self) -> (u64, Act) {
        let kind = match self.joiners.len() {
            0 => 0,
            1 => self.rng.index(3),
            _ => 1 + self.rng.index(2),
        };
        let gap = self.mean_gap / 2 + self.rng.range_u64(1..self.mean_gap);
        if kind == 0 {
            return (gap, Act::Add(self.mint()));
        }
        let out = self.joiners.swap_remove(self.rng.index(self.joiners.len()));
        match kind {
            1 => (gap, Act::Remove(out)),
            _ => (gap, Act::Replace(out, self.mint())),
        }
    }

    fn mint(&mut self) -> ServerId {
        let sid = ServerId(self.next_id);
        self.next_id += 1;
        self.joiners.push(sid);
        sid
    }
}

/// One op as it ran.
#[derive(Debug, Clone)]
pub struct OpSpan {
    /// The client's op count at this op (its checker op id's sequence).
    pub seq: u64,
    /// Issue time, from the start of the run.
    pub start: Duration,
    /// Completion (or abandonment) time.
    pub end: Duration,
    /// The written or read tag; `None` when every attempt failed.
    pub tag: Option<Tag>,
    /// The client moved to a new epoch during the op.
    pub adopted: bool,
}

/// One cluster event as it ran.
#[derive(Debug, Clone)]
pub struct EventSpan {
    /// Sync or async.
    pub sync: bool,
    /// What it did.
    pub act: Act,
    /// Start time, from the start of the run.
    pub start: Duration,
    /// End time.
    pub end: Duration,
    /// The cluster's answer.
    pub result: Result<(), String>,
}

/// What one schedule did.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Every op, each client's in schedule order.
    pub ops: Vec<OpSpan>,
    /// Every cluster event, in schedule order.
    pub events: Vec<EventSpan>,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// `VmRSS` in KiB when the run ended (0 without `/proc`).
    pub rss_kib: u64,
}

impl Record {
    /// Ops that completed.
    pub fn completed(&self) -> u64 {
        self.ops.iter().filter(|o| o.tag.is_some()).count() as u64
    }

    /// Ops abandoned after every attempt failed.
    pub fn failed(&self) -> u64 {
        self.ops.len() as u64 - self.completed()
    }

    /// Membership events the cluster applied.
    pub fn membership_applied(&self) -> u64 {
        let applied = |e: &&EventSpan| e.act.is_membership() && e.result.is_ok();
        self.events.iter().filter(applied).count() as u64
    }
}

/// A schedule client: its kv client, its own transport, and its op count.
struct Client {
    kv: KvClient,
    transport: TcpKvTransport,
    seq: u64,
}

/// Runs schedules against a [`TcpKvCluster`]. Clients, the per-key
/// checkers and the [`Scope::Served`] roles persist across runs: a fresh
/// client would restart its sequence numbers, and the replicas would
/// rightly ignore its stale tags.
pub struct Executor {
    keys: Vec<Vec<u8>>,
    tconfig: TransportConfig,
    audit: Option<Arc<AuditLog>>,
    clients: BTreeMap<u16, Client>,
    checked: CheckedKeys,
    served: BTreeMap<ServerId, (ByzRole, u64)>,
}

/// Where every client and the supervisor stand, under one lock.
struct Progress {
    /// Per client slot: position of its next op not yet issued.
    issued: Vec<usize>,
    /// Per client slot: position of its next op not yet completed.
    done: Vec<usize>,
    /// Ops at or past this position wait: the position of the first
    /// cluster event not yet finished (sync) or started (async).
    barrier: usize,
}

struct Gate(Mutex<Progress>, Condvar);

impl Gate {
    /// Waits until `ready` holds, applies `then`, and wakes every waiter.
    fn advance(&self, ready: impl Fn(&Progress) -> bool, then: impl FnOnce(&mut Progress)) {
        let mut p = self.0.lock().expect("gate lock");
        while !ready(&p) {
            p = self.1.wait(p).expect("gate lock");
        }
        then(&mut p);
        self.1.notify_all();
    }
}

/// Releases every position for the others when its thread ends, normally
/// or by a panic, so a panic surfaces at the join instead of hanging the
/// threads that wait on the one that died.
struct OnExit<'a>(&'a Gate, Option<usize>);

impl Drop for OnExit<'_> {
    fn drop(&mut self) {
        let mut p = self.0 .0.lock().unwrap_or_else(PoisonError::into_inner);
        match self.1 {
            Some(slot) => (p.issued[slot], p.done[slot]) = (usize::MAX, usize::MAX),
            None => p.barrier = usize::MAX,
        }
        self.0 .1.notify_all();
    }
}

impl Executor {
    /// An executor over `keys`; every op gets `attempts` tries, and every
    /// client runs with the `tconfig` policy.
    pub fn new(keys: Vec<Vec<u8>>, attempts: usize, tconfig: TransportConfig) -> Executor {
        Executor {
            checked: CheckedKeys::new(keys.len(), attempts),
            keys,
            tconfig,
            audit: None,
            clients: BTreeMap::new(),
            served: BTreeMap::new(),
        }
    }

    /// Feeds every client's transport into `audit`, which `enforce` uses.
    pub fn audited(mut self, audit: Arc<AuditLog>) -> Executor {
        self.audit = Some(audit);
        self
    }

    /// Prunes every checker and collects the verdicts so far.
    pub fn close(&self) -> Judged {
        self.checked.close()
    }

    /// Runs `schedule` to its end and returns what happened.
    ///
    /// # Panics
    ///
    /// Panics when a sync event fails (printing the schedule) or a client
    /// thread panics.
    pub fn run(&mut self, cluster: &mut TcpKvCluster, schedule: &Schedule) -> Record {
        let (mut positions, mut acts) = (BTreeMap::<u16, Vec<usize>>::new(), Vec::new());
        for (at, e) in schedule.events.iter().enumerate() {
            match *e {
                Event::Put(c, _) | Event::Get(c, _) => positions.entry(c).or_default().push(at),
                Event::Sync(act) => acts.push((at, true, act)),
                Event::Async(act) => acts.push((at, false, act)),
            }
        }
        for &c in positions.keys() {
            self.clients.entry(c).or_insert_with(|| {
                let mut kv = KvClient::sharded(cluster.map().clone(), WriterId(c), ReaderId(c));
                kv.set_policy(self.tconfig);
                let mut transport = cluster.transport_with(self.tconfig);
                if let Some(audit) = &self.audit {
                    transport.set_audit(Arc::clone(audit));
                }
                Client {
                    kv,
                    transport,
                    seq: 0,
                }
            });
        }
        let first = |v: &Vec<usize>| v.first().copied().unwrap_or(usize::MAX);
        let gate = Gate(
            Mutex::new(Progress {
                issued: positions.values().map(first).collect(),
                done: positions.values().map(first).collect(),
                barrier: acts.first().map_or(usize::MAX, |a| a.0),
            }),
            Condvar::new(),
        );
        let started = Instant::now();
        let Executor {
            keys,
            audit,
            clients,
            checked,
            served,
            ..
        } = self;
        let (keys, checked, events, gate) = (&*keys, &*checked, &schedule.events, &gate);
        let mut record = Record::default();
        let mine = clients
            .iter_mut()
            .filter_map(|(c, client)| Some((client, positions.remove(c)?)));
        std::thread::scope(|s| {
            let threads: Vec<_> = mine
                .enumerate()
                .map(|(slot, (client, at))| {
                    s.spawn(move || {
                        let _exit = OnExit(gate, Some(slot));
                        let mut spans = Vec::with_capacity(at.len());
                        for (i, &p) in at.iter().enumerate() {
                            let next = at.get(i + 1).copied().unwrap_or(usize::MAX);
                            gate.advance(|g| g.barrier > p, |g| g.issued[slot] = next);
                            let (start, epoch) = (started.elapsed(), client.kv.epoch());
                            let tag = run_op(client, checked, events[p], keys);
                            spans.push(OpSpan {
                                seq: client.seq,
                                start,
                                end: started.elapsed(),
                                tag,
                                adopted: client.kv.epoch() != epoch,
                            });
                            gate.advance(|_| true, |g| g.done[slot] = next);
                        }
                        spans
                    })
                })
                .collect();
            let _exit = OnExit(gate, None);
            for (i, &(at, sync, act)) in acts.iter().enumerate() {
                let next = acts.get(i + 1).map_or(usize::MAX, |a| a.0);
                let release = |g: &mut Progress| g.barrier = next;
                if sync {
                    gate.advance(|g| g.done.iter().all(|&d| d > at), |_| ());
                } else {
                    gate.advance(|g| g.issued.iter().all(|&d| d > at), |_| ());
                }
                let start = started.elapsed();
                if !sync {
                    gate.advance(|_| true, release);
                }
                let result = apply(cluster, act, audit.as_deref(), served);
                if let (true, Err(e)) = (sync, &result) {
                    panic!("sync {act} failed: {e}; the schedule follows\n{schedule}");
                }
                let end = started.elapsed();
                record.events.push(EventSpan {
                    sync,
                    act,
                    start,
                    end,
                    result,
                });
                if sync {
                    gate.advance(|_| true, release);
                }
            }
            for t in threads {
                record.ops.extend(t.join().expect("client thread"));
            }
        });
        record.elapsed = started.elapsed();
        record.rss_kib = proc_status("VmRSS:");
        record
    }
}

/// Applies one cluster event; `served` holds the [`Scope::Served`] roles.
fn apply(
    cluster: &mut TcpKvCluster,
    act: Act,
    audit: Option<&AuditLog>,
    served: &mut BTreeMap<ServerId, (ByzRole, u64)>,
) -> Result<(), String> {
    let io = |r: std::io::Result<()>| r.map_err(|e| e.to_string());
    match act {
        Act::Crash(sid) => cluster.crash(sid),
        Act::Restart(sid) => {
            served.remove(&sid);
            io(cluster.restart(sid))?;
        }
        Act::SetRole(sid, Scope::Respawn, role, seed) => {
            served.remove(&sid);
            io(cluster.set_role(sid, role, seed))?;
        }
        Act::SetRole(sid, Scope::Shard(g), role, seed) => {
            if !cluster.set_shard_role(sid, g, role, seed) {
                return Err(format!("{sid} does not serve {g}"));
            }
        }
        Act::SetRole(sid, Scope::Served, role, seed) => {
            served.remove(&sid);
            if role != ByzRole::Correct {
                served.insert(sid, (role, seed));
            }
            serve_role(cluster, sid, role, seed)?;
        }
        Act::Add(sid) => io(cluster.add_replica(sid))?,
        Act::Remove(sid) => io(cluster.remove_replica(sid))?,
        Act::Replace(out, joiner) => io(cluster.replace_replica(out, joiner))?,
        Act::SetPlan(seed) => cluster.set_plan(seed.map(|s| FaultPlan::new(s, FaultSpec::mild()))),
        Act::Enforce => {
            let audit = audit.ok_or("enforce needs an audit log")?;
            cluster.enforce_verdicts(audit).map_err(|e| e.to_string())?;
        }
        Act::Barrier => {}
    }
    if act.is_membership() {
        // A group newly placed on a survivor starts honest: put every
        // served role back before the step counts as finished.
        served.retain(|sid, _| cluster.map().fleet().contains(sid));
        for (&sid, &(role, seed)) in served.iter() {
            serve_role(cluster, sid, role, seed)?;
        }
    }
    Ok(())
}

/// Sets `role` live on every group `sid` serves, seeding each group's
/// forgeries with `seed ^ group`.
fn serve_role(
    cluster: &TcpKvCluster,
    sid: ServerId,
    role: ByzRole,
    seed: u64,
) -> Result<(), String> {
    for g in cluster.map().shards_of_server(sid) {
        if !cluster.set_shard_role(sid, g, role, seed ^ u64::from(g.0)) {
            return Err(format!("{sid} does not serve {g}"));
        }
    }
    Ok(())
}

/// Runs one logical op through the key's checker.
fn run_op(c: &mut Client, checked: &CheckedKeys, op: Event, keys: &[Vec<u8>]) -> Option<Tag> {
    c.seq += 1;
    let (kv, transport) = (&mut c.kv, &mut c.transport);
    match op {
        Event::Put(id, k) => {
            let value = value_of(id, c.seq);
            let op = OpId::new(WriterId(id), c.seq);
            checked.write(k, op, &value, || kv.put(transport, &keys[k], value.clone()))
        }
        Event::Get(id, k) => {
            let op = OpId::new(ReaderId(id), c.seq);
            checked.read(k, op, || kv.get_with_tag(transport, &keys[k]))
        }
        Event::Sync(_) | Event::Async(_) => unreachable!("client positions hold ops"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_form_is_one_event_per_line() {
        let mut s = Schedule::new(7);
        let role = Act::SetRole(
            ServerId(3),
            Scope::Shard(ShardId(1)),
            ByzRole::Fabricator,
            9,
        );
        s.interleave(
            vec![Event::Put(0, 1), Event::Get(100, 2)],
            vec![
                (1, Event::Async(Act::Restart(ServerId(2)))),
                (0, Event::Sync(role)),
            ],
        );
        s.extend([
            Event::Sync(Act::SetRole(ServerId(4), Scope::Served, ByzRole::Silent, 1)),
            Event::Sync(Act::SetPlan(None)),
            Event::Async(Act::Replace(ServerId(1), ServerId(6))),
            Event::Sync(Act::Enforce),
        ]);
        assert_eq!(
            s.to_string(),
            "seed 7\nsync set-role s3/g1 fabricator 9\nput c0 k1\nasync restart s2\nget c100 k2\n\
             sync set-role s4/* silent 1\nsync set-plan none\nasync replace s1 s6\nsync enforce\n"
        );
    }

    #[test]
    fn arrivals_replay_from_the_seed_and_only_joiners_leave() {
        let base: Vec<ServerId> = (0..5).map(ServerId).collect();
        let draw = |seed| {
            let (mut a, mut fleet) = (Arrivals::new(seed, 40), base.clone());
            let mut s = Schedule::new(seed);
            for _ in 0..12 {
                let (gap, act) = a.next_event();
                assert!((21..60).contains(&gap), "gap {gap}");
                act.step_fleet(&mut fleet);
                assert!(base.iter().all(|b| fleet.contains(b)));
                assert!(fleet.len() <= base.len() + 2);
                s.extend([Event::Async(act)]);
            }
            s.to_string()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        assert!(draw(3)
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("async add s100"));
    }

    /// A served role follows its replica onto a group a membership step
    /// newly places on it: after the step, clearing the role on the group
    /// it served before leaves the replica still Byzantine.
    #[test]
    fn served_roles_follow_the_replica_through_a_step() {
        use safereg_common::config::QuorumConfig;
        use safereg_common::shard::ShardMap;
        use safereg_kv::KvMode;

        let q = QuorumConfig::minimal_bsr(1).unwrap();
        let map = ShardMap::new(5, 2, (0..6).map(ServerId).collect(), q).unwrap();
        let single = |s: &&ServerId| map.shards_of_server(**s).len() == 1;
        let sid = *map.fleet().iter().find(single).expect("m < fleet");
        let held = map.shards_of_server(sid)[0];
        let out = *map.fleet().iter().find(|s| **s != sid).unwrap();
        let mut cluster = TcpKvCluster::builder(KvMode::Replicated, b"served-roles")
            .shards(map)
            .start()
            .unwrap();
        let mut s = Schedule::new(1);
        s.extend([
            Event::Sync(Act::SetRole(sid, Scope::Served, ByzRole::Fabricator, 1)),
            Event::Sync(Act::Remove(out)),
            Event::Sync(Act::SetRole(sid, Scope::Shard(held), ByzRole::Correct, 0)),
        ]);
        Executor::new(Vec::new(), 1, TransportConfig::default()).run(&mut cluster, &s);
        assert_eq!(cluster.map().shards_of_server(sid).len(), 2);
        assert_eq!(cluster.roles()[&sid], ByzRole::Fabricator);
    }

    #[test]
    #[should_panic(expected = "sync set-role s1/g7 fabricator 0 failed")]
    fn a_failed_sync_event_panics_with_the_schedule() {
        let q = safereg_common::config::QuorumConfig::minimal_bsr(1).unwrap();
        let mut cluster = TcpKvCluster::builder(safereg_kv::KvMode::Replicated, b"sync-fails")
            .quorum(q)
            .start()
            .unwrap();
        let act = Act::SetRole(
            ServerId(1),
            Scope::Shard(ShardId(7)),
            ByzRole::Fabricator,
            0,
        );
        let mut s = Schedule::new(1);
        s.extend([Event::Sync(act)]);
        Executor::new(Vec::new(), 1, TransportConfig::default()).run(&mut cluster, &s);
    }

    /// Every generator renders the same text for the same seed and
    /// different text for another.
    #[test]
    fn generators_are_functions_of_the_seed() {
        use crate::{audit, churn, soak, trace};
        let text = |seed: u64| -> Vec<String> {
            let mut all = trace::legs(seed).to_vec();
            all.extend(audit::legs(&audit::AuditConfig {
                seed,
                ..Default::default()
            }));
            for continuous in [false, true] {
                all.extend(churn::steps(&churn::ChurnConfig {
                    seed,
                    continuous,
                    ops_per_phase: 8,
                    ..Default::default()
                }));
            }
            for (shards, continuous) in [(1, false), (4, false), (1, true), (4, true)] {
                let cfg = soak::SoakConfig {
                    seed,
                    shards,
                    continuous,
                    ops: 400,
                    ..Default::default()
                };
                all.extend(soak::epochs(&cfg, 3));
            }
            all.iter().map(Schedule::to_string).collect()
        };
        assert_eq!(text(7), text(7));
        assert!(text(7).iter().zip(text(8)).all(|(a, b)| *a != b));
    }
}
