//! Experiment harness for the paper's claims.
//!
//! The paper is a theory paper: its "evaluation" is a set of analytical
//! claims (resilience bounds, round complexities, the 1.5× reliable-
//! broadcast overhead, MDS storage/bandwidth factors) and three
//! impossibility/violation arguments. This crate regenerates each claim as
//! a measurable experiment:
//!
//! | Exp | Claim | Function |
//! |-----|-------|----------|
//! | E1 | resilience table: BSR `4f+1`, BCSR `5f+1`, RB `3f+1`, all tight | [`experiments::e1_resilience`] |
//! | E2 | one-shot reads (Def. 3), 2-round writes | [`experiments::e2_rounds`] |
//! | E3 | RB writes pay ≈1.5× BSR's write latency | [`experiments::e3_latency`] |
//! | E4 | storage/bandwidth: replication `n` vs MDS `n/k` units | [`experiments::e4_costs`] |
//! | E5 | Theorem 3 replay: BSR not regular; BSR-H/2P survive | [`experiments::e5_theorem3`] |
//! | E6 | Theorem 5 replay: `n = 4f` unsafe, `4f+1` safe | [`experiments::e6_theorem5`] |
//! | E7 | Theorem 6 replay: `n = 5f` unsafe, `5f+1` safe | [`experiments::e7_theorem6`] |
//! | E8 | read-heavy workloads: protocol comparison | [`experiments::e8_workloads`] |
//! | E9 | liveness at exactly `f` faults, starvation beyond | [`experiments::e9_liveness`] |
//! | E10 | Lemma 2: write order respects real time | [`experiments::e10_write_order`] |
//!
//! plus the design ablations [`ablations::a1_witness_threshold`],
//! [`ablations::a2_tag_selection`], [`ablations::a3_decode_strategy`] and
//! [`ablations::a4_history_retention`], and the deployed-stack scenarios:
//!
//! | Scenario | What it checks | Report |
//! |----------|----------------|--------|
//! | [`wire`] | zero-copy relay, ≥ 2× fewer allocations per coded write | `BENCH_wire.json` |
//! | [`shard`] | `n` sockets per client at any shard count; monotone scaling | `BENCH_shard.json` |
//! | [`trace`] | deterministic spans, every slow read attributed, violation dumps | `BENCH_trace.json` |
//! | [`soak`] | epochs of rotating live-Byzantine replicas, chaos and restarts | `BENCH_soak.json` |
//! | [`churn`] | add/remove/replace under a live Fabricator, every op judged | `BENCH_churn.json` |
//! | [`audit`] | every injected Byzantine replica convicted, nobody else | `BENCH_audit.json` |
//! | [`runtime`] | reactor latency and thread count at high connection counts | `BENCH_runtime.json` |
//!
//! `soak`, `churn`, `audit` and `trace`'s two TCP legs are data: each is a
//! generator of [`schedule::Schedule`]s (seeded event lists whose text
//! form a failed verdict prints) and a verdict folded from what the one
//! [`schedule::Executor`] recorded; `churn --continuous` and
//! `soak --continuous` share one arrival/departure process,
//! [`schedule::Arrivals`]. The scenarios share one flag parser and
//! verdict path ([`cli`]), one JSON writer ([`json`]) and one transport
//! policy and per-key checker bookkeeping ([`ops`]). (Client self-healing
//! under a seeded network adversary is tier-1: `tests/chaos_torture.rs`.)
//!
//! Run everything: `cargo run -p safereg-bench --bin paper_harness`.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod ablations;
pub mod audit;
pub mod churn;
pub mod cli;
pub mod experiments;
pub mod json;
pub mod ops;
pub mod runtime;
pub mod schedule;
pub mod search;
pub mod shard;
pub mod soak;
pub mod table;
pub mod trace;
pub mod wire;
