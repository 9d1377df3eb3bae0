//! Logical timestamps ("tags").
//!
//! A tag is the pair `(num, writer)` from the paper's pseudocode (Fig. 1,
//! line 6: `t_w = (t.num + 1, w)`). Tags are totally ordered first by the
//! number and then by the writer id, which is how two concurrent writes that
//! never hear of each other are tie-broken (Lemma 2, Case 2).

use std::fmt;

use crate::codec::{BytesReader, Wire, WireError};
use crate::ids::WriterId;

/// A logical timestamp `(num, writer)` attached to every written value.
///
/// # Examples
///
/// ```
/// use safereg_common::{tag::Tag, ids::WriterId};
///
/// let a = Tag::new(3, WriterId(1));
/// let b = Tag::new(3, WriterId(2));
/// assert!(b > a, "equal numbers tie-break on writer id");
/// assert!(a.next_for(WriterId(0)) > b, "next increments the number");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag {
    /// Monotone sequence number; compared first.
    pub num: u64,
    /// Writer that created the tag; breaks ties between concurrent writes.
    pub writer: WriterId,
}

impl Tag {
    /// The initial tag `t_0` paired with the register's default value `v_0`.
    ///
    /// It is smaller than every tag a real write can produce because writes
    /// always increment the number (Fig. 1, line 6).
    pub const ZERO: Tag = Tag {
        num: 0,
        writer: WriterId(0),
    };

    /// Creates a tag from its parts.
    pub fn new(num: u64, writer: WriterId) -> Self {
        Tag { num, writer }
    }

    /// The tag a write by `writer` creates after observing `self` as the
    /// selected `(f+1)`-th highest tag (Fig. 1, line 6).
    #[must_use]
    pub fn next_for(&self, writer: WriterId) -> Tag {
        Tag {
            num: self.num + 1,
            writer,
        }
    }

    /// Returns `true` for the initial tag.
    pub fn is_initial(&self) -> bool {
        *self == Tag::ZERO
    }
}

impl Default for Tag {
    fn default() -> Self {
        Tag::ZERO
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.num, self.writer)
    }
}

impl Wire for Tag {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.num.encode_to(buf);
        self.writer.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(Tag {
            num: u64::decode_borrowed(r)?,
            writer: WriterId::decode_borrowed(r)?,
        })
    }

    fn wire_len(&self) -> usize {
        8 + 2
    }
}

/// Selects the `(f+1)`-th highest tag from a set of responses (Fig. 1,
/// line 4).
///
/// With at most `f` Byzantine servers, at most `f` of the reported tags can
/// be fabricated arbitrarily high, so the `(f+1)`-th highest is at most the
/// highest tag held by a correct server — a single liar cannot inflate the
/// register's tag space (ablation A2 demonstrates what goes wrong if `max`
/// is used instead).
///
/// Returns [`Tag::ZERO`] when `tags` is empty, which cannot happen in the
/// protocol (the caller has at least `n - f ≥ f + 1` responses).
///
/// # Examples
///
/// ```
/// use safereg_common::{tag::{Tag, select_f1_highest}, ids::WriterId};
///
/// let honest = Tag::new(5, WriterId(1));
/// let inflated = Tag::new(u64::MAX, WriterId(9)); // Byzantine
/// let tags = vec![inflated, honest, Tag::new(4, WriterId(2))];
/// assert_eq!(select_f1_highest(&tags, 1), honest);
/// ```
pub fn select_f1_highest(tags: &[Tag], f: usize) -> Tag {
    let mut sorted: Vec<Tag> = tags.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    sorted
        .get(f)
        .copied()
        .unwrap_or_else(|| sorted.last().copied().unwrap_or(Tag::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_num_then_writer() {
        let a = Tag::new(1, WriterId(9));
        let b = Tag::new(2, WriterId(0));
        assert!(b > a);
        assert!(Tag::new(2, WriterId(1)) > b);
        assert!(Tag::ZERO < a);
    }

    #[test]
    fn next_for_strictly_increases() {
        let t = Tag::new(7, WriterId(3));
        let n = t.next_for(WriterId(0));
        assert!(n > t);
        assert_eq!(n.num, 8);
        assert_eq!(n.writer, WriterId(0));
    }

    #[test]
    fn initial_tag_is_minimal_and_default() {
        assert!(Tag::ZERO.is_initial());
        assert_eq!(Tag::default(), Tag::ZERO);
        assert!(!Tag::new(0, WriterId(1)).is_initial());
    }

    #[test]
    fn f1_selection_discards_f_inflated_tags() {
        let honest_max = Tag::new(10, WriterId(1));
        let mut tags = vec![
            Tag::new(u64::MAX, WriterId(8)),
            Tag::new(u64::MAX - 1, WriterId(9)),
            honest_max,
            Tag::new(9, WriterId(2)),
            Tag::new(2, WriterId(3)),
        ];
        assert_eq!(select_f1_highest(&tags, 2), honest_max);
        // With f = 0 the max is selected.
        tags.sort();
        assert_eq!(select_f1_highest(&tags, 0), Tag::new(u64::MAX, WriterId(8)));
    }

    #[test]
    fn f1_selection_handles_short_inputs() {
        assert_eq!(select_f1_highest(&[], 1), Tag::ZERO);
        let only = Tag::new(4, WriterId(1));
        assert_eq!(select_f1_highest(&[only], 3), only);
    }

    #[test]
    fn wire_roundtrip() {
        let t = Tag::new(42, WriterId(7));
        let buf = t.to_bytes();
        assert_eq!(Tag::from_bytes(&buf).unwrap(), t);
        assert_eq!(t.wire_len(), buf.len());
    }

    #[test]
    fn display_shows_both_parts() {
        assert_eq!(Tag::new(3, WriterId(1)).to_string(), "(3,w1)");
    }
}
