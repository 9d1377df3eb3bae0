//! The exchange sequence a `KvClient` produces, pinned.
//!
//! A recording transport wraps an `InMemKvCluster` with scripted faults —
//! an unreachable server, a reachable but silent one, `f + 1` epoch
//! redirects and a lying replica — and logs every exchange as
//! `(physical server, shard, message kind, op)`, every `reconfigure`, the
//! suspects of each op, each op's result and the slow-read cause it was
//! counted under. The script runs in both modes and the log must match
//! `data/exchange_log.txt` byte for byte: a change to how an op contacts
//! its replicas — their order, their number, the retry set — shows up
//! here as a diff. Regenerate the file with `SAFEREG_BLESS=1` only when
//! such a change is the point.
//!
//! The same script, run through a transport that overrides
//! `KvTransport::round` by delegating to the recording transport's own,
//! must produce the same log: an override that observes the replies and
//! delegates changes nothing.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Duration;

use safereg_common::buf::Bytes;
use safereg_common::config::{BackoffPolicy, QuorumConfig, TransportConfig};
use safereg_common::epoch::EpochConfig;
use safereg_common::ids::{ClientId, ReaderId, ServerId, WriterId};
use safereg_common::msg::{ClientToServer, Payload, ServerToClient};
use safereg_common::shard::{ShardId, ShardMap};
use safereg_common::trace::TraceCtx;
use safereg_common::value::Value;
use safereg_kv::{Flow, InMemKvCluster, KvClient, KvMode, KvSend, KvTransport, Reply, Unreachable};
use safereg_obs::names;
use safereg_obs::span::SlowCause;

/// Serializes the tests of this binary: the slow-cause counters read
/// below are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// The recording transport and its scripted faults.
struct Script {
    inner: InMemKvCluster,
    log: String,
    /// Servers that fail at the network layer on their next exchange
    /// (each entry is consumed by one attempt).
    down: Vec<ServerId>,
    /// Servers that are reached but answer nothing (to messages of
    /// `silent_kind` only, when set).
    silent: BTreeSet<ServerId>,
    silent_kind: Option<&'static str>,
    /// A server that answers reads with a forged value at the genuine tag.
    liar: Option<ServerId>,
    /// Servers that redirect to `newer` until the client adopts it.
    redirecting: BTreeSet<ServerId>,
    newer: EpochConfig,
    adopted: u32,
    suspects: BTreeSet<ServerId>,
    /// Run every op through [`Relay`] instead of this transport directly.
    relay: bool,
    /// Replies the relay's callback saw.
    relayed: usize,
}

fn kind(msg: &ClientToServer) -> &'static str {
    match msg {
        ClientToServer::QueryTag { .. } => "QueryTag",
        ClientToServer::PutData { .. } => "PutData",
        ClientToServer::QueryData { .. } => "QueryData",
        _ => "other",
    }
}

impl KvTransport for Script {
    fn exchange(
        &mut self,
        from: ClientId,
        to: ServerId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
        trace: TraceCtx,
    ) -> Result<Vec<ServerToClient>, Unreachable> {
        let op = msg.op();
        let who = match from {
            ClientId::Writer(w) => format!("w{}", w.0),
            ClientId::Reader(r) => format!("r{}", r.0),
        };
        let _ = write!(
            self.log,
            "  {who}#{} {} -> s{} g{}",
            op.seq,
            kind(msg),
            to.0,
            shard.0
        );
        if let Some(i) = self.down.iter().position(|s| *s == to) {
            self.down.remove(i);
            self.log.push_str(" unreachable\n");
            return Err(Unreachable { server: to });
        }
        if self.silent.contains(&to) && self.silent_kind.is_none_or(|k| k == kind(msg)) {
            self.log.push_str(" silent\n");
            return Ok(Vec::new());
        }
        if self.redirecting.contains(&to) && self.adopted < self.newer.epoch {
            self.log.push_str(" redirect\n");
            return Ok(vec![ServerToClient::WrongEpoch {
                op,
                config: self.newer.clone(),
            }]);
        }
        let mut replies = self.inner.exchange(from, to, shard, key, msg, trace)?;
        if self.liar == Some(to) {
            for reply in &mut replies {
                if let ServerToClient::DataResp { payload, .. } = reply {
                    *payload = match payload {
                        Payload::Full(_) => Payload::Full(Value::from("forged")),
                        Payload::Coded(c) => {
                            let mut c = c.clone();
                            c.data = Bytes::from(vec![0xEE; c.data.len()]);
                            Payload::Coded(c)
                        }
                    };
                }
            }
            self.log.push_str(" lies");
        }
        let _ = writeln!(self.log, " {} replies", replies.len());
        Ok(replies)
    }

    fn reconfigure(&mut self, config: &EpochConfig) {
        self.adopted = config.epoch;
        let _ = writeln!(
            self.log,
            "  reconfigure epoch {} fleet {:?}",
            config.epoch,
            config.ids()
        );
    }

    fn suspect(&mut self, server: ServerId) {
        self.suspects.insert(server);
    }
}

fn slow_counts() -> Vec<u64> {
    let reg = safereg_obs::global();
    SlowCause::ALL
        .iter()
        .map(|c| reg.counter(&names::slow_cause_counter(c.as_str())).get())
        .collect()
}

/// The cluster fleet is `0..=m` and the client starts on the genesis map
/// over `0..m`; `seed` is chosen so that the cluster's placement includes
/// server `m`, so adopting the cluster's configuration moves the client
/// onto a different replica set.
fn deployment(cfg: QuorumConfig, mode: KvMode, relay: bool) -> (Script, KvClient) {
    let m = cfg.n() as u16;
    let seed = (0..)
        .find(|seed| {
            let map = ShardMap::new(*seed, 1, (0..=m).map(ServerId).collect(), cfg).unwrap();
            map.replicas(ShardId(0)).unwrap().contains(&ServerId(m))
        })
        .unwrap();
    let fleet: Vec<ServerId> = (0..=m).map(ServerId).collect();
    let map = ShardMap::new(seed, 1, fleet.clone(), cfg).unwrap();
    let genesis = ShardMap::new(seed, 1, (0..m).map(ServerId).collect(), cfg).unwrap();
    let (w, r) = (WriterId(3), ReaderId(4));
    let mut client = match mode {
        KvMode::Replicated => KvClient::sharded(genesis, w, r),
        KvMode::Coded => KvClient::sharded_coded(genesis, w, r),
    };
    client.set_policy(TransportConfig {
        backoff: BackoffPolicy {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            jitter_permille: 0,
        },
        ..TransportConfig::default()
    });
    let script = Script {
        inner: InMemKvCluster::new_sharded(map, mode),
        log: String::new(),
        down: Vec::new(),
        silent: BTreeSet::new(),
        silent_kind: None,
        liar: None,
        // The first two servers the genesis op contacts (f + 1 = 2).
        redirecting: [ServerId(m - 1), ServerId(m - 2)].into(),
        newer: EpochConfig::at_epoch(1, EpochConfig::genesis(fleet).members),
        adopted: 0,
        suspects: BTreeSet::new(),
        relay,
        relayed: 0,
    };
    (script, client)
}

/// Wraps the script and overrides `round`: it counts each reply on its way
/// to the client's callback and delegates the exchanges to the script's
/// own (default) `round`.
struct Relay<'a>(&'a mut Script);

impl KvTransport for Relay<'_> {
    fn exchange(
        &mut self,
        from: ClientId,
        to: ServerId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
        trace: TraceCtx,
    ) -> Result<Vec<ServerToClient>, Unreachable> {
        self.0.exchange(from, to, shard, key, msg, trace)
    }

    fn round(
        &mut self,
        key: &[u8],
        sends: Vec<KvSend>,
        on_reply: &mut dyn FnMut(&KvSend, Reply) -> Flow,
    ) -> Vec<KvSend> {
        let mut seen = 0;
        let retry = self.0.round(key, sends, &mut |send, reply| {
            seen += 1;
            on_reply(send, reply)
        });
        self.0.relayed += seen;
        retry
    }

    fn reconfigure(&mut self, config: &EpochConfig) {
        self.0.reconfigure(config);
    }

    fn suspect(&mut self, server: ServerId) {
        self.0.suspect(server);
    }
}

fn put(t: &mut Script, c: &mut KvClient, step: &str, key: &[u8], value: &str) {
    let _ = writeln!(t.log, "{step}: put {}", String::from_utf8_lossy(key));
    let out = if t.relay {
        c.put(&mut Relay(t), key, value)
    } else {
        c.put(t, key, value)
    };
    close(t, c, format!("{out:?}"), None);
}

fn get(t: &mut Script, c: &mut KvClient, step: &str, key: &[u8]) {
    let _ = writeln!(t.log, "{step}: get {}", String::from_utf8_lossy(key));
    let before = slow_counts();
    let out = if t.relay {
        c.get_with_tag(&mut Relay(t), key)
    } else {
        c.get_with_tag(t, key)
    };
    let out = out.map(|(v, tag)| (String::from_utf8_lossy(v.as_bytes()).into_owned(), tag));
    let cause = SlowCause::ALL
        .iter()
        .zip(slow_counts().iter().zip(&before))
        .filter(|(_, (after, before))| after > before)
        .map(|(c, _)| c.as_str())
        .collect::<Vec<_>>();
    close(t, c, format!("{out:?}"), Some(cause));
}

fn close(t: &mut Script, c: &KvClient, out: String, cause: Option<Vec<&str>>) {
    let suspects = std::mem::take(&mut t.suspects);
    let _ = writeln!(
        t.log,
        "  => {out} epoch {} suspects {suspects:?}{}",
        c.epoch(),
        cause.map_or(String::new(), |c| format!(" slow {c:?}"))
    );
}

/// Runs the whole script in one mode and returns its log.
fn run_script(cfg: QuorumConfig, mode: KvMode, relay: bool) -> (String, usize) {
    let (mut t, mut c) = deployment(cfg, mode, relay);
    {
        let t = &mut t;
        let m = cfg.n() as u16;
        put(t, &mut c, "redirect and adopt", b"k", "v1");
        get(t, &mut c, "healthy", b"k");
        put(t, &mut c, "healthy", b"k", "v2");
        get(t, &mut c, "healthy", b"k");
        let placed = c.map().replicas(ShardId(0)).unwrap().to_vec();
        t.down = vec![placed[m as usize - 1]];
        put(t, &mut c, "unreachable once", b"k", "v3");
        t.down = vec![placed[m as usize - 1]];
        get(t, &mut c, "unreachable once", b"k");
        t.silent = [placed[m as usize - 2]].into();
        put(t, &mut c, "silent", b"k", "v4");
        get(t, &mut c, "silent", b"k");
        t.down = vec![placed[m as usize - 1]];
        get(t, &mut c, "silent and unreachable once", b"k");
        t.silent.clear();
        t.liar = Some(placed[m as usize - 1]);
        get(t, &mut c, "liar", b"k");
        t.liar = Some(placed[0]);
        get(t, &mut c, "liar", b"k");
        t.liar = None;
        // A put whose data reaches only the first two servers it contacts
        // fails, and leaves a value only two replicas witness: the reader
        // that saw it then reads slow whenever one of the two is missing
        // from its quorum.
        t.silent = placed[..m as usize - 2].iter().copied().collect();
        t.silent_kind = Some("PutData");
        put(t, &mut c, "data reaches two", b"k", "v5");
        t.silent.clear();
        t.silent_kind = None;
        get(t, &mut c, "both witnesses", b"k");
        t.silent = [placed[m as usize - 1]].into();
        get(t, &mut c, "one witness silent", b"k");
        t.silent.clear();
        t.down = vec![placed[m as usize - 1]];
        get(t, &mut c, "one witness unreachable once", b"k");
        t.down = vec![placed[m as usize - 1]];
        t.silent = [placed[m as usize - 2]].into();
        get(t, &mut c, "witnesses silent and unreachable once", b"k");
        t.silent.clear();
        get(t, &mut c, "never written", b"fresh");
    }
    (t.log, t.relayed)
}

/// The script's log in both modes, and how many replies a relay saw.
fn full_log(relay: bool) -> (String, usize) {
    let mut log = String::from("# replicated, n = 5, f = 1\n");
    let (repl, repl_relayed) = run_script(
        QuorumConfig::minimal_bsr(1).unwrap(),
        KvMode::Replicated,
        relay,
    );
    log += &repl;
    log += "# coded, n = 8, f = 1, k = 3\n";
    let (coded, coded_relayed) = run_script(QuorumConfig::new(8, 1).unwrap(), KvMode::Coded, relay);
    log += &coded;
    (log, repl_relayed + coded_relayed)
}

fn expected() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(EXPECTED);
    std::fs::read_to_string(path).unwrap()
}

fn assert_same_log(log: &str, expected: &str) {
    for (i, (a, b)) in log.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, b, "first difference at line {}", i + 1);
    }
    assert_eq!(
        log.lines().count(),
        expected.lines().count(),
        "log length differs"
    );
}

const EXPECTED: &str = "tests/data/exchange_log.txt";

#[test]
fn client_exchange_sequence_matches_the_recorded_log() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (log, _) = full_log(false);
    if std::env::var_os("SAFEREG_BLESS").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(EXPECTED);
        std::fs::write(path, &log).unwrap();
    }
    assert_same_log(&log, &expected());
}

#[test]
fn a_delegating_round_override_sees_each_reply_once_and_changes_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (log, relayed) = full_log(true);
    assert_same_log(&log, &expected());
    let exchanges = log.lines().filter(|l| l.contains(" -> s")).count();
    assert_eq!(relayed, exchanges, "one callback per exchange");
}
