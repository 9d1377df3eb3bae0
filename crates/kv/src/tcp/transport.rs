//! The client side of the TCP deployment: [`TcpKvTransport`], plus
//! [`encode_request`] for load generators that pre-seal requests and
//! [`fetch_metrics`] for the admin dump.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use safereg_common::buf::Bytes;
use safereg_common::config::TransportConfig;
use safereg_common::epoch::{ConfigStamp, EpochConfig};
use safereg_common::ids::{ClientId, NodeId, ServerId};
use safereg_common::msg::{ClientToServer, Envelope, Message, OpId, Payload, ServerToClient};
use safereg_common::shard::ShardId;
use safereg_common::trace::TraceCtx;
use safereg_crypto::keychain::{KeyChain, KeyRing};
use safereg_transport::frame::{read_frame, KvFrame, SealedKv, TailDigest};

use super::METRICS_KEY;
use crate::audit::AuditLog;
use crate::client::{KvTransport, Unreachable};

/// Seals one client→server request exactly as [`TcpKvTransport::exchange`]
/// would and returns the complete length-prefixed wire bytes, ready to be
/// written to a replica's socket verbatim. Load generators use this to
/// pre-encode a request once and replay it from many connections without
/// paying the seal on the hot path.
pub fn encode_request(
    chain: &KeyChain,
    stamp: ConfigStamp,
    from: ClientId,
    to: ServerId,
    shard: ShardId,
    key: &[u8],
    msg: &ClientToServer,
) -> Vec<u8> {
    let frame = KvFrame {
        shard,
        trace: TraceCtx::NONE,
        stamp,
        link: None,
        key: Bytes::copy_from_slice(key),
        env: Envelope::to_server(from, to, msg.clone()),
    };
    SealedKv::seal(chain, &frame).to_wire_bytes()
}

/// Circuit-breaker states for one KV link.
const STATE_CLOSED: u8 = 0;
const STATE_HALF_OPEN: u8 = 1;
const STATE_OPEN: u8 = 2;

/// One replica's connection state inside [`TcpKvTransport`]: the live
/// stream (if any), the breaker, and the earliest instant a reconnect may
/// be attempted.
struct KvLink {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Consecutive failed exchanges/connects since the last success.
    failures: u32,
    state: u8,
    /// While set and in the future, the link fails fast without touching
    /// the network (breaker cooldown via backoff).
    next_retry_at: Option<std::time::Instant>,
}

impl KvLink {
    /// A closed-breaker link to `server` at `addr`; `stream` is `None`
    /// until the first exchange connects lazily.
    fn new(server: ServerId, addr: SocketAddr, stream: Option<TcpStream>) -> KvLink {
        safereg_obs::global()
            .gauge(&safereg_obs::names::link_state_gauge(server.0))
            .set(u64::from(STATE_CLOSED));
        KvLink {
            addr,
            stream,
            failures: 0,
            state: STATE_CLOSED,
            next_retry_at: None,
        }
    }

    fn set_state(&mut self, server: ServerId, new: u8) {
        if self.state != new {
            self.state = new;
            let reg = safereg_obs::global();
            reg.counter(safereg_obs::names::KV_BREAKER_TRANSITIONS)
                .inc();
            reg.gauge(&safereg_obs::names::link_state_gauge(server.0))
                .set(u64::from(new));
        }
    }
}

/// [`KvTransport`] over TCP connections to every replica.
///
/// The transport is synchronous (one request, at most one response per
/// exchange) but *self-healing*: a dead connection is torn down, backed
/// off, and lazily re-established on a later exchange, so a replica that
/// restarts rejoins the quorum instead of being silently dropped forever.
/// Each failed connect or exchange makes the link fail fast (no blocking
/// connect on the hot path) until its backoff cooldown elapses, and its
/// circuit breaker reads Open from that first failure.
pub struct TcpKvTransport {
    /// Every link's keyed MAC state, derived on first use.
    ring: KeyRing,
    /// The digest of the last tail sealed. The n `PutData` frames of one
    /// put share one value, so the put hashes it once.
    tail: Option<TailDigest>,
    links: BTreeMap<ServerId, KvLink>,
    config: TransportConfig,
    /// Accountability sink: when set, every attested reply's chain link is
    /// cross-checked (and bad frames noted as suspicion) in the shared
    /// [`AuditLog`].
    audit: Option<Arc<AuditLog>>,
    /// The epoch fingerprint stamped into every outgoing frame. Starts as
    /// the genesis stamp over the connected fleet; updated by
    /// [`reconfigure`](KvTransport::reconfigure) when the client adopts a
    /// newer membership.
    stamp: ConfigStamp,
    /// Jitter rolls for backoff waits.
    rng: safereg_common::rng::DetRng,
}

impl std::fmt::Debug for TcpKvTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpKvTransport")
            .field("servers", &self.links.len())
            .finish()
    }
}

impl TcpKvTransport {
    /// Connects to the given replicas under the transport policy `config`.
    /// Unreachable replicas are not abandoned — they are retried lazily on
    /// later exchanges.
    pub fn connect_with(
        servers: &BTreeMap<ServerId, SocketAddr>,
        chain: KeyChain,
        config: TransportConfig,
    ) -> Self {
        let mut links = BTreeMap::new();
        for (sid, addr) in servers {
            let stream = TcpStream::connect_timeout(addr, config.connect_timeout).ok();
            if let Some(s) = &stream {
                let _ = s.set_read_timeout(Some(config.io_timeout));
                let _ = s.set_nodelay(true);
            }
            links.insert(*sid, KvLink::new(*sid, *addr, stream));
        }
        TcpKvTransport {
            ring: KeyRing::new(&chain),
            tail: None,
            links,
            config,
            audit: None,
            stamp: EpochConfig::genesis(servers.keys().copied()).stamp(),
            rng: safereg_common::rng::DetRng::seed_from(0x5AFE_4B56),
        }
    }

    /// Attaches a shared audit log: every subsequent exchange feeds
    /// received chain links (and suspicion signals) into it. All
    /// transports of one deployment should share one log — cross-client
    /// pooling is what catches per-reader-consistent equivocation.
    pub fn set_audit(&mut self, audit: Arc<AuditLog>) {
        self.audit = Some(audit);
    }

    /// Notes a circumstantial signal against `to` in the attached audit
    /// log, if any.
    fn note_suspect(&self, to: ServerId) {
        if let Some(audit) = &self.audit {
            audit.suspect(to);
        }
    }

    /// Overrides the per-exchange response timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.config.io_timeout = timeout;
        for link in self.links.values() {
            if let Some(stream) = &link.stream {
                let _ = stream.set_read_timeout(Some(timeout));
            }
        }
    }

    /// The breaker state of one replica link (0 Closed, 1 HalfOpen,
    /// 2 Open), or `None` for an unknown server.
    pub fn link_state(&self, server: ServerId) -> Option<u8> {
        self.links.get(&server).map(|l| l.state)
    }

    /// Number of currently open sockets. The transport keys connections
    /// by **physical** server, so this is bounded by the fleet size `n`
    /// no matter how many shards route through it — the socket-sharing
    /// invariant the sharding bench asserts (`n` sockets, not `s × n`).
    pub fn live_sockets(&self) -> usize {
        self.links.values().filter(|l| l.stream.is_some()).count()
    }

    /// Marks a link failed: drops the stream, opens the breaker, and
    /// schedules the earliest reconnect.
    fn fail_link(&mut self, to: ServerId) -> Unreachable {
        let roll = self.rng.next_u64();
        let backoff = self.config.backoff;
        if let Some(link) = self.links.get_mut(&to) {
            link.stream = None;
            link.failures = link.failures.saturating_add(1);
            link.set_state(to, STATE_OPEN);
            let wait = backoff.delay(link.failures.saturating_sub(1), roll);
            link.next_retry_at = Some(std::time::Instant::now() + wait);
        }
        Unreachable { server: to }
    }

    /// Ensures `to` has a live stream, honouring the breaker cooldown.
    fn ensure_connected(&mut self, to: ServerId) -> Result<(), Unreachable> {
        let (connect_timeout, io_timeout) = (self.config.connect_timeout, self.config.io_timeout);
        let Some(link) = self.links.get_mut(&to) else {
            return Err(Unreachable { server: to });
        };
        if link.stream.is_some() {
            return Ok(());
        }
        if let Some(at) = link.next_retry_at {
            if std::time::Instant::now() < at {
                // Cooling down: fail fast instead of blocking the caller
                // on a connect that just failed.
                return Err(Unreachable { server: to });
            }
        }
        match TcpStream::connect_timeout(&link.addr, connect_timeout) {
            Ok(stream) => {
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_nodelay(true);
                link.stream = Some(stream);
                link.next_retry_at = None;
                // A handshake is weak evidence (listener backlogs accept
                // for dead servers): half-open until a reply arrives.
                if link.state == STATE_OPEN {
                    link.set_state(to, STATE_HALF_OPEN);
                }
                safereg_obs::global()
                    .counter(safereg_obs::names::KV_RECONNECTS)
                    .inc();
                Ok(())
            }
            Err(_) => Err(self.fail_link(to)),
        }
    }
}

impl KvTransport for TcpKvTransport {
    fn exchange(
        &mut self,
        from: ClientId,
        to: ServerId,
        shard: ShardId,
        key: &[u8],
        msg: &ClientToServer,
        trace: TraceCtx,
    ) -> Result<Vec<ServerToClient>, Unreachable> {
        self.ensure_connected(to)?;
        let frame = KvFrame {
            shard,
            trace,
            stamp: self.stamp,
            link: None,
            key: Bytes::copy_from_slice(key),
            env: Envelope::to_server(from, to, msg.clone()),
        };
        // Encode once into (head, tail) parts — the tail is a slice of the
        // value being put, never a re-buffered copy — and MAC the head and
        // the tail's digest.
        let link = self.ring.link(frame.env.src, frame.env.dst);
        let sealed = SealedKv::seal_with(link, &frame, &mut self.tail);
        let stream = self
            .links
            .get_mut(&to)
            .and_then(|l| l.stream.as_mut())
            .expect("ensure_connected left a live stream");
        if sealed.write_to(stream).is_err() {
            return Err(self.fail_link(to));
        }
        // One response per request in the KV protocol.
        let sealed = match read_frame(stream) {
            Ok(f) => f,
            Err(_) => return Err(self.fail_link(to)),
        };
        // A frame arrived: the server is alive. Everything below that
        // fails is Byzantine (forged MAC, wrong key, junk) — reachable
        // silence, not a network fault.
        if let Some(link) = self.links.get_mut(&to) {
            link.failures = 0;
            link.set_state(to, STATE_CLOSED);
        }
        // Borrowing open: the returned value aliases the frame buffer.
        let Ok(reply) = KvFrame::parse(&sealed).and_then(|r| {
            r.verify(self.ring.link(r.env.src, r.env.dst), &sealed)?;
            Ok(r)
        }) else {
            // Malformed, forged or wire-corrupted: deliberately *not*
            // evidence — the network can do this to a correct replica's
            // frames.
            self.note_suspect(to);
            return Ok(Vec::new());
        };
        if reply.shard != shard || reply.key.as_ref() != key || reply.env.src != NodeId::Server(to)
        {
            self.note_suspect(to);
            return Ok(Vec::new());
        }
        // Authentic reply: cross-check its attestation against everything
        // the deployment has seen. A convicting contradiction files
        // offline-verifiable evidence; the reply is still delivered (the
        // quorum layer above tolerates the lie, the audit layer blames it).
        if let (Some(audit), Some(link)) = (&self.audit, &reply.link) {
            audit.observe(link, &sealed);
        }
        match reply.env.msg {
            Message::ToClient(m) => Ok(vec![m]),
            _ => Ok(Vec::new()),
        }
    }

    fn suspect(&mut self, server: ServerId) {
        self.note_suspect(server);
    }

    /// Switches the transport to a newly adopted membership: stamps future
    /// frames with the new epoch's fingerprint, drops links to ex-members,
    /// opens (lazy) links to joiners whose address the config carries, and
    /// re-addresses members whose address changed. Members the config has
    /// no address for keep their existing link — the digest never covered
    /// addresses, so an id-only view is still a full adoption.
    fn reconfigure(&mut self, config: &EpochConfig) {
        self.stamp = config.stamp();
        self.links.retain(|sid, _| config.contains(*sid));
        for m in &config.members {
            let Some(addr) = m.addr() else { continue };
            match self.links.get_mut(&m.id) {
                Some(link) if link.addr == addr => {}
                Some(link) => {
                    link.addr = addr;
                    link.stream = None;
                    link.failures = 0;
                    link.next_retry_at = None;
                }
                None => {
                    self.links.insert(m.id, KvLink::new(m.id, addr, None));
                }
            }
        }
    }
}

/// Fetches one replica's metrics dump (line-oriented JSON) over any
/// [`KvTransport`] by querying the reserved [`METRICS_KEY`].
///
/// Returns `None` when the replica is unreachable, does not answer,
/// answers with the wrong operation id, or the payload is not UTF-8.
pub fn fetch_metrics(
    transport: &mut impl KvTransport,
    from: ClientId,
    to: ServerId,
    seq: u64,
) -> Option<String> {
    let op = OpId::new(from, seq);
    // The admin path is intercepted before shard dispatch, so any shard id
    // works; 0 by convention.
    let responses = transport
        .exchange(
            from,
            to,
            ShardId(0),
            METRICS_KEY,
            &ClientToServer::QueryData { op },
            TraceCtx::NONE,
        )
        .ok()?;
    responses.into_iter().find_map(|resp| match resp {
        ServerToClient::DataResp {
            op: rop,
            payload: Payload::Full(v),
            ..
        } if rop == op => String::from_utf8(v.as_bytes().to_vec()).ok(),
        _ => None,
    })
}
