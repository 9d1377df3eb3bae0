//! Zero-dependency observability for the `safereg` workspace.
//!
//! Everything a run wants to know about itself — how many reads took the
//! paper's *fast* path versus the *slow* fallback, how long quorum waits
//! took, what went over the wire — flows through this crate:
//!
//! * [`metrics`] — a named [`Registry`](metrics::Registry) of lock-sharded
//!   [`Counter`](metrics::Counter)s, [`Gauge`](metrics::Gauge)s and
//!   log-linear [`Histogram`](metrics::Histogram)s, frozen into
//!   deterministic [`Snapshot`](metrics::Snapshot)s.
//! * [`span`] — packed causal span records: a per-run [`SpanLog`] the
//!   simulator stamps with virtual time, and the process-wide
//!   [`FlightRecorder`] the TCP stack stamps with wall-clock microseconds.
//! * [`trace`] — the [`MsgClass`] wire-message labels and the
//!   [`wall_micros`](trace::wall_micros) clock.
//! * [`export`] — a human table and line-oriented JSON, both pure
//!   functions of a snapshot so equal runs dump identical bytes.
//! * [`names`] — pinned metric names for the self-healing network path
//!   (reconnects, breaker transitions, backoff waits, chaos injections),
//!   shared by the transport, kv and chaos layers.
//!
//! Two ownership styles coexist deliberately. The deterministic simulator
//! creates one `Registry` per run and stamps spans with **virtual time**,
//! so a seed reproduces its metric dump bit-for-bit. The TCP transport and
//! kv server share the process-wide [`global`] registry and stamp spans
//! with wall-clock microseconds.
//!
//! # Examples
//!
//! ```
//! use safereg_obs::metrics::Registry;
//!
//! let reg = Registry::new();
//! reg.counter("reads.fast").inc();
//! reg.histogram("read.latency").record(12);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("reads.fast"), Some(1));
//! println!("{}", safereg_obs::export::render_table(&snap));
//! ```

pub mod export;
pub mod metrics;
pub mod names;
pub mod span;
pub mod trace;

pub use export::{render_jsonl, render_table};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry, Snapshot};
pub use span::{
    attribute_slow_read, dump_flight, flight, violation_trees, FlightRecorder, SlowCause,
    SlowEvidence, SpanKind, SpanLog, SpanRecord, SpanSink,
};
pub use trace::MsgClass;

/// The process-wide registry used by the TCP transport and kv server.
///
/// The simulator deliberately does **not** use this — it owns a registry
/// per run so that concurrent simulations (and determinism tests) never
/// share state.
pub fn global() -> &'static Registry {
    static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_is_shared() {
        super::global().counter("test.global").add(2);
        assert!(super::global().snapshot().counter("test.global").unwrap() >= 2);
    }
}
