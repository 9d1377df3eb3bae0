//! Load generation: the open-loop and closed-loop phase drivers, the KV
//! worker that executes and verifies operations, and the live deployment
//! they run against.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use safereg_common::config::{QuorumConfig, TransportConfig};
use safereg_common::ids::{ReaderId, ServerId, WriterId};
use safereg_common::shard::ShardMap;
use safereg_common::value::Value;
use safereg_kv::{InMemKvCluster, KvClient, KvMode, KvTransport, TcpKvCluster, TcpKvTransport};
use safereg_transport::chaos::{ChaosProxy, FaultPlan, FaultSpec};

use crate::workload::{key_of, Op, Spec, ValuePool, STRAGGLER_DELAY_US, STRAGGLER_SERVER, WORKERS};

/// What became of one attempted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// The operation returned an error.
    Failed,
    /// A get returned something other than its key owner's last put.
    Wrong,
    /// The open-loop schedule ran out before the op could start.
    Refused,
}

/// Something that can execute generated operations; the phase drivers know
/// nothing else about their workers, so tests drive them with fakes.
pub trait Exec: Send {
    fn exec(&mut self, op: &Op) -> Outcome;
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub put: bool,
    /// Open loop: completion minus **due** time. Closed loop: completion
    /// minus start. Infinite unless the outcome is `Ok`.
    pub latency_us: f64,
    /// Open loop: how long after its due time the op started.
    pub late_us: f64,
    pub outcome: Outcome,
}

#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall: Duration,
}

impl Phase {
    pub fn count(&self, outcome: Outcome) -> usize {
        self.samples.iter().filter(|s| s.outcome == outcome).count()
    }

    pub fn latencies(&self, put: bool) -> Vec<f64> {
        let of_kind = self.samples.iter().filter(|s| s.put == put);
        of_kind.map(|s| s.latency_us).collect()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.count(Outcome::Ok) as f64 / self.wall.as_secs_f64()
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn sample(op: &Op, outcome: Outcome, latency: Duration, late: Duration) -> Sample {
    Sample {
        put: op.put,
        latency_us: if outcome == Outcome::Ok {
            micros(latency)
        } else {
            f64::INFINITY
        },
        late_us: micros(late),
        outcome,
    }
}

/// Runs `ops` on a fixed schedule: op `i` is due at `start + i / rate` and
/// belongs to worker `i % workers`. Latency is counted from the due time,
/// so a stall delays — and is charged to — every op scheduled behind it.
/// Ops that could not start within `grace` of the schedule's end are
/// refused.
pub fn open_loop<E: Exec>(workers: &mut [E], ops: &[Op], rate: f64, grace: Duration) -> Phase {
    let stride = workers.len();
    // A short lead so that no worker is late for the very first op.
    let start = Instant::now() + Duration::from_millis(2);
    let cutoff = start + Duration::from_secs_f64(ops.len() as f64 / rate) + grace;
    let per_worker: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(w, worker)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(ops.len() / stride + 1);
                    for (i, op) in ops.iter().enumerate().skip(w).step_by(stride) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let begin = Instant::now();
                        let late = begin.saturating_duration_since(due);
                        if begin > cutoff {
                            out.push(sample(op, Outcome::Refused, late, late));
                            continue;
                        }
                        let outcome = worker.exec(op);
                        out.push(sample(op, outcome, due.elapsed(), late));
                    }
                    out
                })
            })
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined.map(|r| r.expect("load worker panicked")).collect()
    });
    Phase {
        samples: per_worker.into_iter().flatten().collect(),
        wall: start.elapsed(),
    }
}

/// Runs every worker back to back over its share of `ops` (cycling) until
/// `duration` has passed.
pub fn closed_loop<E: Exec>(workers: &mut [E], ops: &[Op], duration: Duration) -> Phase {
    run_closed(workers, ops, Some(duration))
}

/// Runs every worker once over its share of `ops`, back to back.
pub fn run_once<E: Exec>(workers: &mut [E], ops: &[Op]) -> Phase {
    run_closed(workers, ops, None)
}

fn run_closed<E: Exec>(workers: &mut [E], ops: &[Op], duration: Option<Duration>) -> Phase {
    let stride = workers.len();
    let start = Instant::now();
    let per_worker: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(w, worker)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mine: Vec<&Op> = ops.iter().skip(w).step_by(stride).collect();
                    let mut next = 0;
                    loop {
                        if next == mine.len() {
                            if duration.is_none() || mine.is_empty() {
                                break;
                            }
                            next = 0;
                        }
                        let begin = Instant::now();
                        if duration.is_some_and(|d| begin.duration_since(start) >= d) {
                            break;
                        }
                        let outcome = worker.exec(mine[next]);
                        out.push(sample(mine[next], outcome, begin.elapsed(), Duration::ZERO));
                        next += 1;
                    }
                    out
                })
            })
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined.map(|r| r.expect("load worker panicked")).collect()
    });
    Phase {
        samples: per_worker.into_iter().flatten().collect(),
        wall: start.elapsed(),
    }
}

/// A transport the worker can tell where one `put`/`get` begins and ends.
/// Only the traced run's [`crate::span::SpanTransport`] listens.
pub trait OpTransport: KvTransport + Send {
    fn begin_op(&mut self, _put: bool, _payload_len: usize) {}
    fn end_op(&mut self) {}
}

impl OpTransport for TcpKvTransport {}
impl OpTransport for InMemKvCluster {}

/// One client worker: a `KvClient`, its transport (one socket per replica)
/// and what it last wrote to each key it owns.
pub struct KvWorker<T> {
    pub client: KvClient,
    pub transport: T,
    pool: Arc<ValuePool>,
    /// Indexed by `rank / WORKERS`.
    expected: Vec<Value>,
    versions: Vec<u64>,
}

impl<T> KvWorker<T> {
    pub fn new(client: KvClient, transport: T, pool: Arc<ValuePool>, spec: &Spec) -> Self {
        let owned = spec.keys.div_ceil(WORKERS);
        KvWorker {
            client,
            transport,
            pool,
            expected: vec![Value::initial(); owned],
            versions: vec![0; owned],
        }
    }
}

impl<T: OpTransport> Exec for KvWorker<T> {
    fn exec(&mut self, op: &Op) -> Outcome {
        let key = key_of(op.rank);
        let slot = op.rank as usize / WORKERS;
        if op.put {
            self.versions[slot] += 1;
            let value = self.pool.value(op.rank, self.versions[slot]);
            self.transport.begin_op(true, value.len());
            let result = self.client.put(&mut self.transport, &key, value.clone());
            self.transport.end_op();
            match result {
                Ok(_) => {
                    self.expected[slot] = value;
                    Outcome::Ok
                }
                Err(_) => Outcome::Failed,
            }
        } else {
            self.transport.begin_op(false, 0);
            let result = self.client.get(&mut self.transport, &key);
            self.transport.end_op();
            match result {
                Ok(value) if value == self.expected[slot] => Outcome::Ok,
                Ok(_) => Outcome::Wrong,
                Err(_) => Outcome::Failed,
            }
        }
    }
}

/// One put per key, in rank order: the preload.
pub fn preload_ops(spec: &Spec) -> Vec<Op> {
    let ranks = 0..spec.keys as u32;
    ranks.map(|rank| Op { rank, put: true }).collect()
}

const SHARD_SEED: u64 = 0x5AFE_BE9C;
const MASTER_SEED: &[u8] = b"safereg-benchmark";

pub fn shard_map(spec: &Spec) -> ShardMap {
    let cfg = QuorumConfig::new(spec.n, spec.f).expect("workload quorum is valid");
    if spec.shards == 1 {
        ShardMap::single(cfg)
    } else {
        ShardMap::new(SHARD_SEED, spec.shards, cfg.servers().collect(), cfg)
            .expect("every shard fits the fleet")
    }
}

fn mode(spec: &Spec) -> KvMode {
    if spec.coded {
        KvMode::Coded
    } else {
        KvMode::Replicated
    }
}

pub fn client(spec: &Spec, worker: usize) -> KvClient {
    let (w, r) = (WriterId(worker as u16), ReaderId(worker as u16));
    if spec.coded {
        KvClient::sharded_coded(shard_map(spec), w, r)
    } else {
        KvClient::sharded(shard_map(spec), w, r)
    }
}

pub fn straggler_plan() -> FaultPlan {
    let spec = FaultSpec {
        delay_permille: 1000,
        delay_micros: (STRAGGLER_DELAY_US, STRAGGLER_DELAY_US + 1),
        ..FaultSpec::calm()
    };
    FaultPlan::new(0, spec)
}

/// A live `TcpKvCluster` on loopback, plus the `straggler` proxy when the
/// workload asks for one.
pub struct Deployment {
    pub cluster: TcpKvCluster,
    addrs: BTreeMap<ServerId, SocketAddr>,
    _proxy: Option<ChaosProxy>,
}

impl Deployment {
    pub fn start(spec: &Spec) -> std::io::Result<Self> {
        let cluster = TcpKvCluster::builder(mode(spec), MASTER_SEED)
            .shards(shard_map(spec))
            .start()?;
        let mut addrs = cluster.addrs();
        let proxy = if spec.straggler {
            let slow = ServerId(STRAGGLER_SERVER);
            let proxy = ChaosProxy::spawn(slow, addrs[&slow], straggler_plan())?;
            addrs.insert(slow, proxy.addr());
            Some(proxy)
        } else {
            None
        };
        Ok(Deployment {
            cluster,
            addrs,
            _proxy: proxy,
        })
    }

    /// A transport with one socket per replica (through the proxy where
    /// there is one).
    pub fn transport(&self) -> TcpKvTransport {
        let chain = self.cluster.chain().clone();
        TcpKvTransport::connect_with(&self.addrs, chain, TransportConfig::default())
    }
}

/// The same deployment shape with no sockets and no MACs.
pub fn in_memory(spec: &Spec) -> InMemKvCluster {
    InMemKvCluster::new_sharded(shard_map(spec), mode(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sleeps `stall` on one op and nothing on the others.
    struct Staller {
        stall_rank: u32,
        stall: Duration,
    }

    impl Exec for Staller {
        fn exec(&mut self, op: &Op) -> Outcome {
            if op.rank == self.stall_rank {
                std::thread::sleep(self.stall);
            }
            Outcome::Ok
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_ops_scheduled_behind_it() {
        // One worker, 1 ms between ops, op 2 stalls 20 ms: ops 3.. were due
        // during the stall, so their latency from the due time is most of
        // the stall even though their own service time is nil.
        let ranks = 0..12;
        let ops: Vec<Op> = ranks.map(|rank| Op { rank, put: false }).collect();
        let mut workers = [Staller {
            stall_rank: 2,
            stall: Duration::from_millis(20),
        }];
        let phase = open_loop(&mut workers, &ops, 1000.0, Duration::from_secs(1));
        assert_eq!(phase.samples.len(), ops.len());
        let lat: Vec<f64> = phase.samples.iter().map(|s| s.latency_us).collect();
        assert!(lat[2] >= 20_000.0);
        assert!(lat[3] >= 18_000.0, "op 3 waited behind the stall: {lat:?}");
        assert!(lat[8] >= 13_000.0, "op 8 waited behind the stall: {lat:?}");
        assert!(phase.samples[8].late_us >= 13_000.0);
        // Ops before the stall are untouched by it.
        assert!(lat[0] < 15_000.0 && lat[1] < 15_000.0, "{lat:?}");
    }

    #[test]
    fn ops_past_the_grace_period_are_refused_and_count_as_infinite() {
        let ranks = 0..6;
        let ops: Vec<Op> = ranks.map(|rank| Op { rank, put: true }).collect();
        let mut workers = [Staller {
            stall_rank: 0,
            stall: Duration::from_millis(30),
        }];
        let phase = open_loop(&mut workers, &ops, 1000.0, Duration::from_millis(1));
        assert_eq!(phase.count(Outcome::Ok), 1);
        assert_eq!(phase.count(Outcome::Refused), 5);
        assert!(phase.latencies(true)[1..].iter().all(|l| l.is_infinite()));
    }

    struct Counter(usize);

    impl Exec for Counter {
        fn exec(&mut self, _: &Op) -> Outcome {
            self.0 += 1;
            Outcome::Ok
        }
    }

    #[test]
    fn closed_loop_splits_ops_by_worker_and_run_once_visits_each_once() {
        let ranks = 0..10;
        let ops: Vec<Op> = ranks.map(|rank| Op { rank, put: false }).collect();
        let mut workers = [Counter(0), Counter(0), Counter(0)];
        let phase = run_once(&mut workers, &ops);
        assert_eq!(phase.samples.len(), 10);
        assert_eq!([workers[0].0, workers[1].0, workers[2].0], [4, 3, 3]);
        let phase = closed_loop(&mut workers, &ops, Duration::from_millis(20));
        assert!(phase.samples.len() > 10, "the op list is cycled");
        assert!(phase.wall >= Duration::from_millis(20));
    }
}
