//! Quorum configuration: the system parameters `n` and `f` and every
//! threshold the paper derives from them.
//!
//! | Quantity | Paper | Here |
//! |----------|-------|------|
//! | response quorum | wait for `n − f` replies (Fig. 1 line 3/8, Fig. 2 line 4) | [`QuorumConfig::response_quorum`] |
//! | witness threshold | `f + 1` witnesses validate a value (Fig. 2 line 5, Lemma 5) | [`QuorumConfig::witness_threshold`] |
//! | BSR resilience | `n ≥ 4f + 1` (Theorem 2, tight by Theorem 5) | [`QuorumConfig::supports_bsr`] |
//! | BCSR resilience | `n ≥ 5f + 1` (Lemma 4, tight by Theorem 6) | [`QuorumConfig::supports_bcsr`] |
//! | RB baseline resilience | `n ≥ 3f + 1` (\[15\], §VI) | [`QuorumConfig::supports_rb_baseline`] |
//! | MDS dimension | `k = n − f − 2e`, `e = 2f` ⇒ `k = n − 5f` (§IV-A) | [`QuorumConfig::mds_k`] |

use std::error::Error;
use std::fmt;
use std::time::Duration;

use crate::ids::ServerId;

/// Error building a [`QuorumConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `n` was zero.
    NoServers,
    /// `n` does not exceed `f`; no operation could ever collect a quorum.
    TooManyFaults {
        /// Total servers.
        n: usize,
        /// Requested fault bound.
        f: usize,
    },
    /// More than 255 servers requested; GF(2⁸) Reed–Solomon codewords carry
    /// at most 255 symbols, so the workspace caps `n` there.
    TooManyServers {
        /// Total servers requested.
        n: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoServers => write!(f, "system must have at least one server"),
            ConfigError::TooManyFaults { n, f: faults } => {
                write!(f, "fault bound f={faults} must be smaller than n={n}")
            }
            ConfigError::TooManyServers { n } => {
                write!(f, "n={n} exceeds the 255-server limit of GF(2^8) codewords")
            }
        }
    }
}

impl Error for ConfigError {}

/// System parameters `(n, f)` plus derived thresholds.
///
/// A `QuorumConfig` does not enforce any protocol's resilience bound by
/// itself — the experiments deliberately instantiate under-provisioned
/// systems (e.g. `n = 4f` for the Theorem 5 replay). Each protocol crate
/// checks the bound it needs via [`QuorumConfig::supports_bsr`] /
/// [`QuorumConfig::supports_bcsr`] / [`QuorumConfig::supports_rb_baseline`]
/// and the unchecked constructors used by the lower-bound scenarios are
/// explicit about it.
///
/// # Examples
///
/// ```
/// use safereg_common::config::QuorumConfig;
///
/// let cfg = QuorumConfig::new(11, 2)?;
/// assert!(cfg.supports_bsr());
/// assert!(cfg.supports_bcsr());         // 11 ≥ 5·2 + 1
/// assert_eq!(cfg.response_quorum(), 9); // n − f
/// assert_eq!(cfg.witness_threshold(), 3); // f + 1
/// assert_eq!(cfg.mds_k(), Some(1));     // n − 5f
/// # Ok::<(), safereg_common::config::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuorumConfig {
    n: usize,
    f: usize,
}

impl QuorumConfig {
    /// Creates a configuration with `n` servers of which at most `f` may be
    /// Byzantine.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `n == 0`, `f ≥ n`, or `n > 255`.
    pub fn new(n: usize, f: usize) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::NoServers);
        }
        if f >= n {
            return Err(ConfigError::TooManyFaults { n, f });
        }
        if n > 255 {
            return Err(ConfigError::TooManyServers { n });
        }
        Ok(QuorumConfig { n, f })
    }

    /// The smallest BSR-capable configuration for a fault bound: `n = 4f+1`.
    pub fn minimal_bsr(f: usize) -> Result<Self, ConfigError> {
        QuorumConfig::new(4 * f + 1, f)
    }

    /// The smallest BCSR-capable configuration for a fault bound: `n = 5f+1`.
    pub fn minimal_bcsr(f: usize) -> Result<Self, ConfigError> {
        QuorumConfig::new(5 * f + 1, f)
    }

    /// The smallest RB-baseline configuration for a fault bound: `n = 3f+1`.
    pub fn minimal_rb(f: usize) -> Result<Self, ConfigError> {
        QuorumConfig::new(3 * f + 1, f)
    }

    /// Total number of servers `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum number of Byzantine servers `f`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Number of responses every phase waits for: `n − f` (Lemma 6 shows
    /// waiting for more forfeits liveness).
    pub fn response_quorum(&self) -> usize {
        self.n - self.f
    }

    /// Witnesses needed before a reader may trust a value: `f + 1`
    /// (Lemma 5 shows fewer admits fabricated values).
    pub fn witness_threshold(&self) -> usize {
        self.f + 1
    }

    /// Whether BSR's resilience bound `n ≥ 4f + 1` holds (Theorem 2).
    pub fn supports_bsr(&self) -> bool {
        self.n > 4 * self.f
    }

    /// Whether BCSR's resilience bound `n ≥ 5f + 1` holds (Lemma 4).
    pub fn supports_bcsr(&self) -> bool {
        self.n > 5 * self.f
    }

    /// Whether the RB baseline's bound `n ≥ 3f + 1` holds (\[15\]).
    pub fn supports_rb_baseline(&self) -> bool {
        self.n > 3 * self.f
    }

    /// MDS code dimension `k = n − 5f` used by BCSR (§IV-A with `e = 2f`),
    /// or `None` when the configuration cannot support a positive dimension.
    pub fn mds_k(&self) -> Option<usize> {
        self.n.checked_sub(5 * self.f).filter(|k| *k > 0)
    }

    /// Maximum erroneous coded elements the BCSR decoder must absorb:
    /// `e = 2f` (§IV-A: `f` Byzantine plus up to `f`… bounded by `2f`).
    pub fn mds_e(&self) -> usize {
        2 * self.f
    }

    /// Bracha reliable-broadcast echo threshold: `⌈(n + f + 1) / 2⌉`,
    /// a quorum large enough that two echo quorums intersect in a correct
    /// server.
    pub fn rb_echo_threshold(&self) -> usize {
        (self.n + self.f + 2) / 2
    }

    /// Bracha ready-amplification threshold: `f + 1` matching `READY`s.
    pub fn rb_ready_amplify(&self) -> usize {
        self.f + 1
    }

    /// Bracha delivery threshold: `2f + 1` matching `READY`s.
    pub fn rb_deliver_threshold(&self) -> usize {
        2 * self.f + 1
    }

    /// Iterator over all server ids `s0 … s(n−1)`.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.n as u16).map(ServerId)
    }

    /// Replication storage cost in "units" of one value copy: `n` (§I-C).
    pub fn replication_storage_units(&self) -> f64 {
        self.n as f64
    }

    /// MDS storage cost in units of one value copy: `n / k` (§I-C), or
    /// `None` when no valid `k` exists.
    pub fn mds_storage_units(&self) -> Option<f64> {
        self.mds_k().map(|k| self.n as f64 / k as f64)
    }
}

impl fmt::Display for QuorumConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} f={}", self.n, self.f)
    }
}

/// Exponential backoff with bounded jitter, pacing the KV transport's
/// lazy reconnects and the client's retry passes.
///
/// The delay for attempt `a` is `base · 2^a`, capped at `cap`, with up to
/// `jitter_permille`/1000 of that value added or subtracted depending on a
/// caller-supplied random roll — callers that need reproducible schedules
/// feed a [`crate::rng::DetRng`] draw, so the policy itself stays a pure
/// function.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use safereg_common::config::BackoffPolicy;
///
/// let p = BackoffPolicy {
///     base: Duration::from_millis(10),
///     cap: Duration::from_millis(80),
///     jitter_permille: 0,
/// };
/// assert_eq!(p.delay(0, 0), Duration::from_millis(10));
/// assert_eq!(p.delay(2, 0), Duration::from_millis(40));
/// assert_eq!(p.delay(10, 0), Duration::from_millis(80)); // capped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on the exponential growth.
    pub cap: Duration,
    /// Jitter amplitude in permille of the capped delay (`0..=1000`);
    /// spreads reconnect storms after a correlated failure.
    pub jitter_permille: u16,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            jitter_permille: 250,
        }
    }
}

impl BackoffPolicy {
    /// The wait before retry number `attempt` (0-based), given a uniform
    /// random `roll` that supplies the jitter. The jittered delay stays in
    /// `[d − d·j/2000, d + d·j/2000]` where `d` is the capped exponential
    /// delay, and never drops below `base / 2`.
    pub fn delay(&self, attempt: u32, roll: u64) -> Duration {
        let base = self.base.as_micros() as u64;
        let cap = self.cap.as_micros() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
        let amplitude = exp / 1000 * u64::from(self.jitter_permille.min(1000));
        let jittered = if amplitude == 0 {
            exp
        } else {
            // Centered jitter: delay ± amplitude/2.
            (exp - amplitude / 2) + roll % (amplitude + 1)
        };
        Duration::from_micros(jittered.max(base / 2))
    }
}

/// Tunables for the real network path: how long to wait for connections
/// and exchanges, how much to retry, how fast a failed link may be
/// retried, and how hosts bound and drain their reply outboxes.
///
/// Defaults: 5 s connects and exchanges, two retry passes per operation,
/// and capped exponential backoff between reconnect attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Per-exchange socket read/write timeout (KV request/response path).
    pub io_timeout: Duration,
    /// How many extra passes an operation makes over the servers that
    /// were unreachable or silent before giving up (0 = single shot).
    pub retry_budget: u32,
    /// Reconnect pacing: a link that failed fails fast until its backoff
    /// cooldown elapses.
    pub backoff: BackoffPolicy,
    /// Capacity of each host connection's bounded reply outbox. A full
    /// outbox stops the host reading that connection's requests until
    /// it drains: backpressure reaches the client and no reply is lost.
    pub chan_capacity: usize,
    /// Server-side: a connection with no inbound frame for this long is
    /// evicted (`server.evictions.idle`). Clients reconnect on demand, so
    /// eviction costs one reconnect, not correctness.
    pub idle_timeout: Duration,
    /// Server-side: a connection whose peer stops draining replies — the
    /// socket write or the bounded reply outbox stalls for this long — is
    /// evicted (`server.evictions.stall`) instead of wedging a host thread.
    pub stall_timeout: Duration,
    /// Head-based trace sampling rate in permille of operations
    /// (`0` = tracing off, `1000` = every op). The decision is made once
    /// per operation by [`crate::trace::TraceCtx::for_op`]; unsampled ops
    /// pay one branch plus the 16 reserved wire bytes per frame.
    pub trace_sample: u16,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            retry_budget: 2,
            backoff: BackoffPolicy::default(),
            chan_capacity: 1024,
            idle_timeout: Duration::from_secs(60),
            stall_timeout: Duration::from_secs(5),
            trace_sample: 0,
        }
    }
}

impl TransportConfig {
    /// A configuration with tight timings for tests and chaos runs:
    /// sub-second connects, fast retries and reconnects, smaller wire-path
    /// queues.
    pub fn aggressive() -> Self {
        TransportConfig {
            connect_timeout: Duration::from_millis(250),
            io_timeout: Duration::from_millis(500),
            retry_budget: 4,
            backoff: BackoffPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(200),
                jitter_permille: 200,
            },
            chan_capacity: 256,
            idle_timeout: Duration::from_secs(10),
            stall_timeout: Duration::from_millis(1500),
            trace_sample: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates() {
        assert_eq!(QuorumConfig::new(0, 0), Err(ConfigError::NoServers));
        assert_eq!(
            QuorumConfig::new(3, 3),
            Err(ConfigError::TooManyFaults { n: 3, f: 3 })
        );
        assert_eq!(
            QuorumConfig::new(300, 1),
            Err(ConfigError::TooManyServers { n: 300 })
        );
        assert!(QuorumConfig::new(255, 50).is_ok());
    }

    #[test]
    fn thresholds_match_paper() {
        let cfg = QuorumConfig::new(9, 2).unwrap();
        assert_eq!(cfg.response_quorum(), 7);
        assert_eq!(cfg.witness_threshold(), 3);
        assert_eq!(cfg.mds_e(), 4);
    }

    #[test]
    fn resilience_bounds_are_tight() {
        for f in 1..=4 {
            let at = QuorumConfig::new(4 * f + 1, f).unwrap();
            let below = QuorumConfig::new(4 * f, f).unwrap();
            assert!(at.supports_bsr());
            assert!(
                !below.supports_bsr(),
                "n=4f must not satisfy BSR (Theorem 5)"
            );

            let at = QuorumConfig::new(5 * f + 1, f).unwrap();
            let below = QuorumConfig::new(5 * f, f).unwrap();
            assert!(at.supports_bcsr());
            assert!(
                !below.supports_bcsr(),
                "n=5f must not satisfy BCSR (Theorem 6)"
            );

            let at = QuorumConfig::new(3 * f + 1, f).unwrap();
            let below = QuorumConfig::new(3 * f, f).unwrap();
            assert!(at.supports_rb_baseline());
            assert!(!below.supports_rb_baseline());
        }
    }

    #[test]
    fn minimal_constructors_sit_exactly_on_the_bound() {
        let bsr = QuorumConfig::minimal_bsr(2).unwrap();
        assert_eq!((bsr.n(), bsr.f()), (9, 2));
        let bcsr = QuorumConfig::minimal_bcsr(2).unwrap();
        assert_eq!((bcsr.n(), bcsr.f()), (11, 2));
        let rb = QuorumConfig::minimal_rb(2).unwrap();
        assert_eq!((rb.n(), rb.f()), (7, 2));
    }

    #[test]
    fn mds_dimension_follows_n_minus_5f() {
        assert_eq!(QuorumConfig::new(6, 1).unwrap().mds_k(), Some(1));
        assert_eq!(QuorumConfig::new(11, 2).unwrap().mds_k(), Some(1));
        assert_eq!(QuorumConfig::new(16, 2).unwrap().mds_k(), Some(6));
        assert_eq!(
            QuorumConfig::new(5, 1).unwrap().mds_k(),
            None,
            "n=5f has no dimension"
        );
    }

    #[test]
    fn storage_units_reproduce_section_i_c() {
        let cfg = QuorumConfig::new(16, 2).unwrap();
        assert_eq!(cfg.replication_storage_units(), 16.0);
        let mds = cfg.mds_storage_units().unwrap();
        assert!((mds - 16.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn rb_thresholds_are_byzantine_quorum_sound() {
        let cfg = QuorumConfig::new(7, 2).unwrap(); // n = 3f+1
                                                    // Echo threshold must exceed (n+f)/2 so two echo quorums intersect
                                                    // in at least one correct server.
        assert!(2 * cfg.rb_echo_threshold() > cfg.n() + cfg.f());
        assert_eq!(cfg.rb_ready_amplify(), 3);
        assert_eq!(cfg.rb_deliver_threshold(), 5);
    }

    #[test]
    fn servers_enumerates_n_ids() {
        let cfg = QuorumConfig::new(4, 1).unwrap();
        let ids: Vec<ServerId> = cfg.servers().collect();
        assert_eq!(
            ids,
            vec![ServerId(0), ServerId(1), ServerId(2), ServerId(3)]
        );
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = BackoffPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            jitter_permille: 0,
        };
        assert_eq!(p.delay(0, 99), Duration::from_millis(10));
        assert_eq!(p.delay(1, 99), Duration::from_millis(20));
        assert_eq!(p.delay(3, 99), Duration::from_millis(80));
        assert_eq!(p.delay(4, 99), Duration::from_millis(100));
        assert_eq!(p.delay(63, 99), Duration::from_millis(100), "no overflow");
    }

    #[test]
    fn backoff_jitter_is_bounded_and_roll_deterministic() {
        let p = BackoffPolicy {
            base: Duration::from_millis(100),
            cap: Duration::from_secs(1),
            jitter_permille: 500,
        };
        for roll in [0u64, 1, 17, u64::MAX] {
            let d = p.delay(0, roll);
            // delay ± 25%: [75ms, 125ms]
            assert!(
                (Duration::from_millis(75)..=Duration::from_millis(125)).contains(&d),
                "jittered {d:?} out of band"
            );
            assert_eq!(d, p.delay(0, roll), "same roll, same delay");
        }
    }

    #[test]
    fn transport_defaults_match_previous_hardcoded_timeouts() {
        let cfg = TransportConfig::default();
        assert_eq!(cfg.connect_timeout, Duration::from_secs(5));
        assert!(cfg.retry_budget > 0);
        let fast = TransportConfig::aggressive();
        assert!(fast.connect_timeout < cfg.connect_timeout);
        assert!(fast.backoff.cap <= cfg.backoff.cap);
        // Wire-path queues are bounded but roomy.
        assert!(cfg.chan_capacity >= 64);
        assert!(fast.chan_capacity <= cfg.chan_capacity);
        // Eviction deadlines: idle must dominate stall, and the aggressive
        // preset must be strictly tighter than the default.
        assert!(cfg.idle_timeout > cfg.stall_timeout);
        assert!(fast.idle_timeout < cfg.idle_timeout);
        assert!(fast.stall_timeout < cfg.stall_timeout);
        // Tracing is opt-in: both presets ship with sampling off.
        assert_eq!(cfg.trace_sample, 0);
        assert_eq!(fast.trace_sample, 0);
    }

    #[test]
    fn display_and_error_display() {
        let cfg = QuorumConfig::new(5, 1).unwrap();
        assert_eq!(cfg.to_string(), "n=5 f=1");
        assert!(ConfigError::TooManyFaults { n: 3, f: 5 }
            .to_string()
            .contains("f=5"));
    }
}
