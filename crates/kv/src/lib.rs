//! A Byzantine-tolerant key-value store layered on safe registers.
//!
//! The paper motivates safe registers with geo-replicated key-value
//! storage (§I: Cassandra, Redis, TAO). This crate shows what a downstream
//! system built on the `safereg` protocols looks like: every key is its own
//! MWMR safe register (one tag space and one log per key), servers host a
//! table of per-key register states, and clients run the unmodified BSR
//! operations per key.
//!
//! * [`server::KvServer`] — a replica hosting one
//!   [`safereg_core::server::ServerNode`] per key, created on first write.
//! * [`client::KvClient`] — `put`/`get` over a pluggable [`KvTransport`];
//!   keeps the per-key reader-local pair, so a client's reads of a key are
//!   monotone (it never re-reads something older than what it has seen).
//! * [`cluster::InMemKvCluster`] — an in-process deployment with
//!   crash-fault injection, used by the examples and tests.
//! * [`tcp::TcpKvCluster`] — the same store on real sockets: per-replica
//!   reactor-served TCP hosts and a MAC-authenticated transport speaking
//!   [`safereg_transport::frame`].
//!
//! Consistency: each key individually is a Byzantine-tolerant *safe*
//! register (Definition 1) — reads concurrent with a put may return any
//! previously-written value for that key; quiescent reads return the
//! latest put. There is no cross-key ordering, exactly like the weakly
//! consistent production stores the paper cites.

pub mod audit;
pub mod client;
pub mod cluster;
pub(crate) mod reactor;
pub mod server;
pub mod tcp;

pub use audit::{AuditLog, Charge, Evidence, Verdict};
pub use client::{Flow, KvClient, KvError, KvSend, KvTransport, Reply, Unreachable};
pub use cluster::InMemKvCluster;
pub use server::{entry_digest, key_digest, KvMode, KvServer};
pub use tcp::{
    encode_request, fetch_metrics, ClusterBuilder, KvHostBuilder, KvServerHost, TcpKvCluster,
    TcpKvTransport, METRICS_KEY,
};
