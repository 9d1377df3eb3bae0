//! MWMR safeness (Definition 1).
//!
//! (i) A read that is *not* concurrent with any write must return the value
//! of some write `w` that precedes it, as long as no other write falls
//! completely between `w` and the read — i.e. the returned write must not
//! be *superseded*. The initial value `v_0` is admissible only when no
//! completed write precedes the read.
//!
//! (ii) A read concurrent with some write may return any value "within the
//! register's allowed range"; we check the stronger validity our protocols
//! actually provide (a consequence of the `f + 1`-witness rule, Lemma 5):
//! the value was written by *some* operation, or is `v_0`.

use safereg_common::history::{History, OpKind, OpRecord};
use safereg_common::tag::Tag;

use crate::{Violation, ViolationKind};

fn read_outcome(r: &OpRecord) -> Option<(&safereg_common::value::Value, Option<Tag>)> {
    match &r.kind {
        OpKind::Read {
            returned: Some(v),
            returned_tag,
        } => Some((v, *returned_tag)),
        _ => None,
    }
}

/// Checks Definition 1 over every completed read.
///
/// # Examples
///
/// ```
/// use safereg_checker::check_safety;
/// use safereg_common::history::History;
/// use safereg_common::ids::{ReaderId, WriterId};
/// use safereg_common::msg::OpId;
/// use safereg_common::tag::Tag;
/// use safereg_common::value::Value;
///
/// let mut h = History::new();
/// let w = h.begin_write(OpId::new(WriterId(0), 1), Value::from("x"), 0);
/// h.complete_write(w, Tag::new(1, WriterId(0)), 10);
/// let r = h.begin_read(OpId::new(ReaderId(0), 1), 20);
/// h.complete_read(r, Value::from("x"), Tag::new(1, WriterId(0)), 30);
/// assert!(check_safety(&h).is_empty());
/// ```
pub fn check_safety(history: &History) -> Vec<Violation> {
    let mut violations = Vec::new();
    let writes: Vec<&OpRecord> = history
        .records()
        .iter()
        .filter(|r| r.kind.is_write())
        .collect();

    for read in history.completed_reads() {
        violations.extend(check_one_read(read, &writes, |_| false));
    }
    violations
}

/// Checks Definition 1 for a single completed read against a set of write
/// records. Shared between the whole-history pass above and the incremental
/// [`WindowedChecker`](crate::window::WindowedChecker), which judges each
/// read at completion against its live window. `ever_written` answers
/// whether a value was written by some operation *no longer in `writes`*:
/// the unbounded pass holds the whole history and passes `|_| false`; the
/// windowed checker passes its pruned-value digest so Definition 1(ii)
/// validity still sees writes the window has dropped.
pub(crate) fn check_one_read(
    read: &OpRecord,
    writes: &[&OpRecord],
    ever_written: impl Fn(&safereg_common::value::Value) -> bool,
) -> Option<Violation> {
    let (value, tag) = read_outcome(read)?;

    let concurrent = writes.iter().any(|w| w.concurrent_with(read));
    if concurrent {
        // Definition 1(ii) + validity: the value must have been written
        // (by a complete or incomplete write) or be v0.
        let written = value.is_initial()
            || writes.iter().any(|w| match &w.kind {
                OpKind::Write { value: wv, .. } => wv == value,
                OpKind::Read { .. } => false,
            })
            || ever_written(value);
        if !written {
            return Some(Violation {
                op: read.op,
                kind: ViolationKind::InvalidValue,
                detail: format!("read returned never-written value {value}"),
            });
        }
        return None;
    }

    // Definition 1(i): the admissible writes are the completed
    // predecessors not entirely superseded by another completed
    // predecessor.
    let preceding: Vec<&OpRecord> = writes
        .iter()
        .copied()
        .filter(|w| w.is_complete() && w.precedes(read))
        .collect();
    let admissible = admissible(&preceding);

    if admissible.is_empty() {
        // No write precedes the read: only v0 is admissible.
        if !value.is_initial() {
            return Some(Violation {
                op: read.op,
                kind: ViolationKind::InvalidValue,
                detail: format!("read with no preceding write returned {value}"),
            });
        }
        return None;
    }

    let matches_admissible = admissible.iter().any(|w| match &w.kind {
        OpKind::Write {
            value: wv,
            tag: wtag,
        } => wv == value && (tag.is_none() || *wtag == tag),
        OpKind::Read { .. } => false,
    });
    if !matches_admissible {
        let admissible_tags: Vec<String> = admissible
            .iter()
            .filter_map(|w| match &w.kind {
                OpKind::Write { tag: Some(t), .. } => Some(t.to_string()),
                _ => None,
            })
            .collect();
        return Some(Violation {
            op: read.op,
            kind: ViolationKind::StaleRead,
            detail: format!(
                "non-concurrent read returned {value} (tag {:?}), admissible writes: [{}]",
                tag,
                admissible_tags.join(", ")
            ),
        });
    }
    None
}

/// The writes of `preceding` (the completed predecessors of one read) that
/// no other one falls entirely between them and the read. `w` is
/// superseded exactly when some predecessor was invoked after `w`
/// completed, that is when `w` completed before the latest invocation
/// among them — so one `max` keeps the filter linear.
fn admissible<'a>(preceding: &[&'a OpRecord]) -> Vec<&'a OpRecord> {
    let Some(latest) = preceding.iter().map(|w| w.invoked_at).max() else {
        return Vec::new();
    };
    let superseded = |w: &OpRecord| w.completed_at.is_some_and(|done| done < latest);
    preceding
        .iter()
        .copied()
        .filter(|w| !superseded(w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use safereg_common::ids::{ReaderId, WriterId};
    use safereg_common::msg::OpId;
    use safereg_common::rng::DetRng;
    use safereg_common::value::Value;

    /// The pairwise filter the linear one replaced, kept as its oracle:
    /// `w` is superseded by any other predecessor that follows it.
    fn admissible_pairwise<'a>(preceding: &[&'a OpRecord]) -> Vec<&'a OpRecord> {
        preceding
            .iter()
            .copied()
            .filter(|w| {
                !preceding
                    .iter()
                    .any(|between| !std::ptr::eq(*between, *w) && w.precedes(between))
            })
            .collect()
    }

    /// Random histories of up to a dozen writes — overlapping, zero-length,
    /// sharing instants, some never completing — and one read: both filters
    /// pick the same admissible writes for it.
    #[test]
    fn linear_filter_matches_the_pairwise_oracle() {
        let mut rng = DetRng::seed_from(0x5AFE);
        for trial in 0..4_000u64 {
            let mut h = History::new();
            for w in 0..rng.range_u64(0..12) {
                let invoked = rng.range_u64(0..20);
                let op = OpId::new(WriterId(w as u16), trial + 1);
                let hw = h.begin_write(op, Value::from(format!("v{w}").into_bytes()), invoked);
                if rng.range_u64(0..4) > 0 {
                    h.complete_write(hw, t(w + 1, w as u16), invoked + rng.range_u64(0..6));
                }
            }
            let r = h.begin_read(OpId::new(ReaderId(0), trial + 1), rng.range_u64(0..30));
            h.complete_read(r, Value::initial(), Tag::ZERO, 40);
            let records = h.records();
            let read = records
                .iter()
                .find(|r| !r.kind.is_write())
                .expect("one read");
            let preceding: Vec<&OpRecord> = records
                .iter()
                .filter(|w| w.kind.is_write() && w.is_complete() && w.precedes(read))
                .collect();
            let ids = |ws: Vec<&OpRecord>| ws.iter().map(|w| w.op).collect::<Vec<_>>();
            assert_eq!(
                ids(admissible(&preceding)),
                ids(admissible_pairwise(&preceding)),
                "trial {trial}"
            );
        }
    }

    fn t(num: u64, w: u16) -> Tag {
        Tag::new(num, WriterId(w))
    }

    /// w1 completes, then w2 completes, then a read returns w2's value: safe.
    #[test]
    fn fresh_read_is_safe() {
        let mut h = History::new();
        let w1 = h.begin_write(OpId::new(WriterId(1), 1), Value::from("a"), 0);
        h.complete_write(w1, t(1, 1), 10);
        let w2 = h.begin_write(OpId::new(WriterId(2), 1), Value::from("b"), 20);
        h.complete_write(w2, t(2, 2), 30);
        let r = h.begin_read(OpId::new(ReaderId(0), 1), 40);
        h.complete_read(r, Value::from("b"), t(2, 2), 50);
        assert!(check_safety(&h).is_empty());
    }

    /// The Theorem 5 shape: returning the superseded value is a violation.
    #[test]
    fn superseded_value_is_flagged() {
        let mut h = History::new();
        let w1 = h.begin_write(OpId::new(WriterId(1), 1), Value::from("a"), 0);
        h.complete_write(w1, t(1, 1), 10);
        let w2 = h.begin_write(OpId::new(WriterId(2), 1), Value::from("b"), 20);
        h.complete_write(w2, t(2, 2), 30);
        let r = h.begin_read(OpId::new(ReaderId(0), 1), 40);
        h.complete_read(r, Value::from("a"), t(1, 1), 50);
        let v = check_safety(&h);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::StaleRead);
    }

    /// Returning v0 after a completed write is also stale.
    #[test]
    fn initial_value_after_completed_write_is_flagged() {
        let mut h = History::new();
        let w = h.begin_write(OpId::new(WriterId(1), 1), Value::from("a"), 0);
        h.complete_write(w, t(1, 1), 10);
        let r = h.begin_read(OpId::new(ReaderId(0), 1), 20);
        h.complete_read(r, Value::initial(), Tag::ZERO, 30);
        let v = check_safety(&h);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::StaleRead);
    }

    /// A read concurrent with a write may return the old, the new, or v0.
    #[test]
    fn concurrent_read_is_permissive() {
        for returned in [Value::from("old"), Value::from("new"), Value::initial()] {
            let mut h = History::new();
            let w0 = h.begin_write(OpId::new(WriterId(1), 1), Value::from("old"), 0);
            h.complete_write(w0, t(1, 1), 10);
            // Concurrent write, incomplete.
            h.begin_write(OpId::new(WriterId(2), 1), Value::from("new"), 20);
            let r = h.begin_read(OpId::new(ReaderId(0), 1), 30);
            let tag = if returned == Value::from("old") {
                t(1, 1)
            } else {
                t(2, 2)
            };
            let tag = if returned.is_initial() {
                Tag::ZERO
            } else {
                tag
            };
            h.complete_read(r, returned, tag, 40);
            assert!(
                check_safety(&h).is_empty(),
                "concurrent reads are unconstrained in value"
            );
        }
    }

    /// But a concurrent read may not return a never-written value.
    #[test]
    fn fabricated_value_is_flagged_even_under_concurrency() {
        let mut h = History::new();
        h.begin_write(OpId::new(WriterId(1), 1), Value::from("real"), 0);
        let r = h.begin_read(OpId::new(ReaderId(0), 1), 5);
        h.complete_read(r, Value::from("forged"), t(9, 9), 15);
        let v = check_safety(&h);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::InvalidValue);
    }

    /// With two admissible concurrent-with-each-other completed writes,
    /// either value passes.
    #[test]
    fn either_of_two_concurrent_writes_is_admissible() {
        for val in ["a", "b"] {
            let mut h = History::new();
            let w1 = h.begin_write(OpId::new(WriterId(1), 1), Value::from("a"), 0);
            let w2 = h.begin_write(OpId::new(WriterId(2), 1), Value::from("b"), 5);
            h.complete_write(w1, t(1, 1), 20);
            h.complete_write(w2, t(1, 2), 20);
            let r = h.begin_read(OpId::new(ReaderId(0), 1), 30);
            let tag = if val == "a" { t(1, 1) } else { t(1, 2) };
            h.complete_read(r, Value::from(val), tag, 40);
            assert!(
                check_safety(&h).is_empty(),
                "value {val} should be admissible"
            );
        }
    }

    /// A read before any write must return v0.
    #[test]
    fn read_before_all_writes_returns_v0() {
        let mut h = History::new();
        let r = h.begin_read(OpId::new(ReaderId(0), 1), 0);
        h.complete_read(r, Value::initial(), Tag::ZERO, 10);
        let w = h.begin_write(OpId::new(WriterId(1), 1), Value::from("later"), 20);
        h.complete_write(w, t(1, 1), 30);
        assert!(check_safety(&h).is_empty());
    }

    /// Value matches but tag does not: flagged (the value was reincarnated
    /// under a wrong tag).
    #[test]
    fn tag_mismatch_is_flagged() {
        let mut h = History::new();
        let w = h.begin_write(OpId::new(WriterId(1), 1), Value::from("a"), 0);
        h.complete_write(w, t(1, 1), 10);
        let r = h.begin_read(OpId::new(ReaderId(0), 1), 20);
        h.complete_read(r, Value::from("a"), t(7, 7), 30);
        let v = check_safety(&h);
        assert_eq!(v.len(), 1);
    }
}
