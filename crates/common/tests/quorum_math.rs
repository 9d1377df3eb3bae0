//! Property tests for the quorum arithmetic underlying the paper's proofs.
//!
//! The correctness arguments repeatedly use intersection sizes of
//! `(n − f)`-quorums; these tests pin the arithmetic facts the lemmas rely
//! on, over the whole configuration space the workspace supports.
//!
//! The suite sweeps the configuration space *exhaustively* (it is only
//! ~32k points), which strictly dominates any sampled property test.

use safereg_common::config::QuorumConfig;

#[test]
fn quorum_arithmetic_invariants_hold_exhaustively() {
    for n in 1usize..=255 {
        for f in 0..n {
            let cfg = QuorumConfig::new(n, f).unwrap();
            // Basic identities.
            assert_eq!(cfg.response_quorum() + cfg.f(), cfg.n());
            assert!(cfg.witness_threshold() <= cfg.response_quorum() || !cfg.supports_bsr());

            // Two response quorums intersect in at least n − 2f servers
            // (can be negative for absurd configurations like f >= n/2).
            let intersection = 2 * cfg.response_quorum() as isize - cfg.n() as isize;
            assert_eq!(intersection, cfg.n() as isize - 2 * cfg.f() as isize);

            if cfg.supports_bsr() {
                // Lemma 1's core: a write quorum and a read quorum share at
                // least 2f + 1 servers, i.e. at least f + 1 correct witnesses.
                assert!(intersection > 2 * cfg.f() as isize);
                // Theorem 2 survives the reader seeing f Byzantine responses:
                // honest witnesses alone reach the threshold.
                assert!(intersection - cfg.f() as isize >= cfg.witness_threshold() as isize);
            }

            if cfg.supports_bcsr() {
                // §IV-A's decode budget: the worst case (f missing, 2f stale
                // marked as erasures, f corrupted-as-errors) fits within the
                // parity budget n − k = 5f.
                let k = cfg.mds_k().unwrap();
                let parity = cfg.n() - k;
                let worst = 2 * cfg.f() /* errors×2 */ + 3 * cfg.f() /* erasures */;
                assert!(worst <= parity);
                // And the fresh elements among n − f responses reach k.
                assert!(cfg.response_quorum() - 2 * cfg.f() >= k);
            }

            if cfg.supports_rb_baseline() {
                // Bracha's thresholds: echo quorums intersect in a correct
                // server, and delivery outruns amplification.
                assert!(2 * cfg.rb_echo_threshold() > cfg.n() + cfg.f());
                assert!(cfg.rb_echo_threshold() <= cfg.response_quorum());
                // With f = 0 the two thresholds coincide (both 1).
                assert!(cfg.rb_deliver_threshold() >= cfg.rb_ready_amplify());
                assert!(cfg.rb_deliver_threshold() <= cfg.response_quorum() + cfg.f());
            }
        }
    }
}

#[test]
fn storage_units_are_consistent_exhaustively() {
    for f in 1usize..=4 {
        for extra in 1usize..40 {
            let n = 5 * f + extra;
            if n > 255 {
                continue;
            }
            let cfg = QuorumConfig::new(n, f).unwrap();
            let k = cfg.mds_k().unwrap();
            assert_eq!(k, extra);
            let units = cfg.mds_storage_units().unwrap();
            assert!((units - n as f64 / k as f64).abs() < 1e-12);
            assert!(units <= cfg.replication_storage_units());
        }
    }
}
