//! Striping values into per-server coded elements.
//!
//! §IV-A: "v is divided into k elements … the encoder takes the k elements
//! as input and produces n coded elements as output … we store one coded
//! element per server." A value of `B` bytes is cut into `k` contiguous
//! chunks of `⌈B/k⌉` bytes, the last one zero-padded; chunk `i` is the
//! systematic element at position `n − k + i`, and each parity element is
//! computed from the chunks a whole element at a time. A coded element is
//! therefore `⌈B/k⌉` bytes — the paper's `1/k` size factor — and byte `c` of
//! the `n` elements is one codeword of [`ReedSolomon`] (column `c`). The
//! original length travels in [`CodedElement::value_len`] so decoding can
//! strip the padding.
//!
//! [`decode_verified`] decodes whole elements too:
//!
//! 1. **Solve.** Take `k` received positions, systematic ones first. When
//!    all `k` systematic elements are present the message is a copy;
//!    otherwise one `k × k` inversion is applied slice-wise.
//! 2. **Verify.** Re-encode and compare every other received element.
//! 3. **Locate.** If one disagrees, run the symbol decoder
//!    [`ReedSolomon::decode`] on the first column that disagrees, treat the
//!    positions it corrects as erasures and solve again, while
//!    `2·located + erasures ≤ n − k`. A Byzantine server corrupts its own
//!    element, so under the paper's model this locates at most `f`
//!    positions.
//! 4. **Fall back.** Only if locating fails, decode column by column
//!    ([`decode_columns`]), the reference the fast path is tested against.
//!
//! The result carries the verified codeword, so the BCSR reader checks its
//! responses against it instead of encoding the value again.

use safereg_common::buf::Bytes;
use safereg_common::msg::CodedElement;
use safereg_common::value::Value;

use crate::gf256;
use crate::rs::{MdsError, ReedSolomon};

/// A received coded element: which codeword position it claims plus its
/// bytes. Borrowed so the BCSR reader can stage responses without copying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementView<'a> {
    /// Codeword position (the server index that stored the element).
    pub index: usize,
    /// The element's bytes (one symbol per column).
    pub data: &'a [u8],
}

impl<'a> ElementView<'a> {
    /// Views a [`CodedElement`] received from a server.
    pub fn of(elem: &'a CodedElement) -> Self {
        ElementView {
            index: elem.index as usize,
            data: &elem.data,
        }
    }
}

/// A value decoded by [`decode_verified`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// The value, `value_len` bytes.
    pub value: Value,
    /// The codeword of `value`, equal to `encode_value(code, &value)`.
    pub elements: Vec<CodedElement>,
    /// Positions whose elements were located as wrong and decoded around,
    /// ascending; `None` when the per-column fallback produced the value.
    pub located: Option<Vec<usize>>,
}

/// Number of columns a value of `value_len` bytes occupies under dimension
/// `k` (the length of every coded element).
pub fn column_count(value_len: usize, k: usize) -> usize {
    value_len.div_ceil(k)
}

/// Encodes a value into `n` coded elements, one per server.
///
/// The element at position `i` is what the BCSR writer sends to server `i`
/// (Fig. 4 line 7: `c_i = Φ_i(v)`).
///
/// # Examples
///
/// ```
/// use safereg_mds::{rs::ReedSolomon, stripe::encode_value};
/// use safereg_common::value::Value;
///
/// let code = ReedSolomon::new(6, 1)?;
/// let elements = encode_value(&code, &Value::from("hi"));
/// assert_eq!(elements.len(), 6);
/// assert_eq!(elements[0].data.len(), 2); // ⌈2 / k⌉ with k = 1
/// # Ok::<(), safereg_mds::MdsError>(())
/// ```
/// All `n` elements are written into a single arena buffer (element `i`
/// occupying `arena[i·cols .. (i+1)·cols]`) that is converted to [`Bytes`]
/// once; each element's `data` is then an O(1) slice of that arena. The
/// BCSR writer turns these directly into per-server `PutData` envelopes,
/// so one allocation backs every fragment the write fans out.
pub fn encode_value(code: &ReedSolomon, value: &Value) -> Vec<CodedElement> {
    let bytes = value.as_bytes();
    let cols = column_count(bytes.len(), code.k());
    let mut arena = vec![0u8; code.n() * cols];
    let message = code.parity() * cols;
    arena[message..message + bytes.len()].copy_from_slice(bytes);
    code.fill_parity(&mut arena, cols);
    elements_of(code, arena, cols, bytes.len())
}

/// Hands out the `n` elements of a codeword arena as slices of one buffer.
fn elements_of(
    code: &ReedSolomon,
    arena: Vec<u8>,
    cols: usize,
    value_len: usize,
) -> Vec<CodedElement> {
    let arena = Bytes::from(arena);
    (0..code.n())
        .map(|i| CodedElement {
            index: i as u16,
            value_len: value_len as u32,
            data: arena
                .try_slice(i * cols..(i + 1) * cols)
                .expect("arena sized as n*cols"),
        })
        .collect()
}

/// Reconstructs a value from received coded elements.
///
/// `elements` may omit positions (erasures) and may contain corrupted or
/// stale elements (errors); decoding succeeds whenever every column's
/// pattern satisfies `2·errors + erasures ≤ n − k`. Elements whose length
/// does not match `⌈value_len/k⌉` are treated as erasures (a Byzantine
/// server cannot crash the decoder with a short buffer), as are duplicate
/// claims for the same position.
///
/// # Errors
///
/// Propagates [`MdsError`] when any column fails to decode; the BCSR reader
/// maps that to "return `v_0`" per Fig. 5 line 4.
pub fn decode_elements(
    code: &ReedSolomon,
    value_len: usize,
    elements: &[ElementView<'_>],
) -> Result<Value, MdsError> {
    decode_verified(code, value_len, elements).map(|d| d.value)
}

/// [`decode_elements`], also returning the codeword the value was verified
/// against and the positions located as wrong (see the module docs for the
/// steps). It succeeds and fails exactly when [`decode_columns`] does, with
/// the same value.
///
/// # Errors
///
/// [`MdsError::TooManyErasures`] when fewer than `k` elements are usable,
/// checked before any element is read; otherwise whatever
/// [`decode_columns`] returns.
pub fn decode_verified(
    code: &ReedSolomon,
    value_len: usize,
    elements: &[ElementView<'_>],
) -> Result<Decoded, MdsError> {
    if value_len == 0 {
        let value = Value::initial();
        return Ok(Decoded {
            elements: encode_value(code, &value),
            value,
            located: Some(Vec::new()),
        });
    }
    let cols = column_count(value_len, code.k());
    let mut slots = stage(code, cols, elements);
    let budget = code.parity();
    let erasures = slots.iter().filter(|s| s.is_none()).count();
    if erasures > budget {
        return Err(MdsError::TooManyErasures { erasures, budget });
    }
    let mut located = Vec::new();
    loop {
        let word = solve(code, &slots, cols);
        let Some(column) = first_mismatch(&word, &slots, cols) else {
            return Ok(finish(code, word, cols, value_len, located));
        };
        // Every error in this column is an element the solve must avoid.
        let received: Vec<Option<u8>> = slots.iter().map(|s| s.map(|d| d[column])).collect();
        let Ok(fixed) = code.decode(&received) else {
            break;
        };
        let wrong: Vec<usize> = (0..code.n())
            .filter(|&i| received[i].is_some_and(|s| s != fixed[i]))
            .collect();
        // Past this budget a column may decode to another codeword, so the
        // result could differ from the per-column decoder's.
        if wrong.is_empty() || 2 * (located.len() + wrong.len()) + erasures > budget {
            break;
        }
        for &i in &wrong {
            slots[i] = None;
        }
        located.extend(wrong);
    }
    let value = decode_columns(code, value_len, elements)?;
    Ok(Decoded {
        elements: encode_value(code, &value),
        value,
        located: None,
    })
}

/// The reference decoder: runs [`ReedSolomon::decode`] once per column.
/// [`decode_verified`] falls back to it, and the property tests check the
/// fast path against it.
///
/// # Errors
///
/// Propagates [`MdsError`] from the first column that fails to decode.
pub fn decode_columns(
    code: &ReedSolomon,
    value_len: usize,
    elements: &[ElementView<'_>],
) -> Result<Value, MdsError> {
    if value_len == 0 {
        return Ok(Value::initial());
    }
    let cols = column_count(value_len, code.k());
    let slots = stage(code, cols, elements);
    let mut message = vec![0u8; code.k() * cols];
    let mut received: Vec<Option<u8>> = vec![None; code.n()];
    for c in 0..cols {
        for (r, slot) in received.iter_mut().zip(&slots) {
            *r = slot.map(|d| d[c]);
        }
        let cw = code.decode(&received)?;
        for (i, symbol) in code.message_of(&cw).iter().enumerate() {
            message[i * cols + c] = *symbol;
        }
    }
    message.truncate(value_len);
    Ok(Value::from(message))
}

/// Stages element bytes by position; malformed or duplicate claims degrade
/// to erasures rather than failures.
fn stage<'a>(
    code: &ReedSolomon,
    cols: usize,
    elements: &[ElementView<'a>],
) -> Vec<Option<&'a [u8]>> {
    let mut slots = vec![None; code.n()];
    for e in elements {
        if e.index < code.n() && e.data.len() == cols && slots[e.index].is_none() {
            slots[e.index] = Some(e.data);
        }
    }
    slots
}

/// Solves for the message from `k` staged elements, systematic positions
/// first, and re-encodes it into a whole codeword arena.
fn solve(code: &ReedSolomon, slots: &[Option<&[u8]>], cols: usize) -> Vec<u8> {
    let (n, k, parity) = (code.n(), code.k(), code.parity());
    let chosen: Vec<(usize, &[u8])> = (parity..n)
        .chain(0..parity)
        .filter_map(|i| slots[i].map(|d| (i, d)))
        .take(k)
        .collect();
    let mut word = vec![0u8; n * cols];
    let message = word[parity * cols..].chunks_exact_mut(cols);
    if chosen.iter().all(|(i, _)| *i >= parity) {
        for (out, (_, data)) in message.zip(&chosen) {
            out.copy_from_slice(data);
        }
    } else {
        let positions: Vec<usize> = chosen.iter().map(|(i, _)| *i).collect();
        let inverse = code.decoding_matrix(&positions);
        for (out, coefs) in message.zip(inverse.chunks_exact(k)) {
            for (&c, (_, data)) in coefs.iter().zip(&chosen) {
                if c != 0 {
                    gf256::mul_acc(out, data, c);
                }
            }
        }
    }
    code.fill_parity(&mut word, cols);
    word
}

/// The first column in which a staged element differs from `word`.
fn first_mismatch(word: &[u8], slots: &[Option<&[u8]>], cols: usize) -> Option<usize> {
    slots
        .iter()
        .zip(word.chunks_exact(cols))
        .filter_map(|(slot, expected)| {
            let data = slot.filter(|data| *data != expected)?;
            data.iter().zip(expected).position(|(a, b)| a != b)
        })
        .min()
}

/// Cuts the value out of a verified codeword. A message whose padding is not
/// zero still decodes (the per-column decoder accepts it too), but then the
/// truncated value's own codeword differs, so it is encoded afresh.
fn finish(
    code: &ReedSolomon,
    word: Vec<u8>,
    cols: usize,
    value_len: usize,
    mut located: Vec<usize>,
) -> Decoded {
    let message = &word[code.parity() * cols..];
    let value = Value::from(&message[..value_len]);
    let elements = if message[value_len..].iter().all(|b| *b == 0) {
        elements_of(code, word, cols, value_len)
    } else {
        encode_value(code, &value)
    };
    located.sort_unstable();
    Decoded {
        value,
        elements,
        located: Some(located),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(elements: &[CodedElement]) -> Vec<ElementView<'_>> {
        elements.iter().map(ElementView::of).collect()
    }

    #[test]
    fn roundtrip_all_elements() {
        let code = ReedSolomon::new(8, 3).unwrap();
        let v = Value::from("the quick brown fox");
        let elements = encode_value(&code, &v);
        assert_eq!(elements.len(), 8);
        let back = decode_elements(&code, v.len(), &views(&elements)).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn elements_share_one_arena_allocation() {
        let code = ReedSolomon::new(11, 1).unwrap();
        let v = Value::from(vec![3u8; 64]);
        let elements = encode_value(&code, &v);
        let cols = column_count(v.len(), 1);
        let base = elements[0].data.as_ref().as_ptr() as usize;
        for (i, e) in elements.iter().enumerate() {
            // Element i sits exactly i*cols bytes into the shared arena:
            // adjacent slices of one allocation, not n separate buffers.
            assert_eq!(e.data.as_ref().as_ptr() as usize, base + i * cols);
        }
    }

    #[test]
    fn element_size_is_value_over_k() {
        let code = ReedSolomon::new(10, 5).unwrap();
        let v = Value::from(vec![7u8; 100]);
        let elements = encode_value(&code, &v);
        for e in &elements {
            assert_eq!(e.data.len(), 20); // 100 / k = 20
            assert_eq!(e.value_len, 100);
        }
        // Non-multiple length pads up.
        let v2 = Value::from(vec![7u8; 101]);
        assert_eq!(encode_value(&code, &v2)[0].data.len(), 21);
    }

    #[test]
    fn any_k_elements_suffice() {
        let code = ReedSolomon::new(7, 3).unwrap();
        let v = Value::from("mds property");
        let elements = encode_value(&code, &v);
        let subset = [&elements[1], &elements[4], &elements[6]];
        let subset_views: Vec<ElementView<'_>> =
            subset.iter().map(|e| ElementView::of(e)).collect();
        assert_eq!(decode_elements(&code, v.len(), &subset_views).unwrap(), v);
    }

    #[test]
    fn corrects_stale_and_byzantine_elements() {
        // BCSR shape: n = 11, f = 2 → k = 1, tolerate 2 missing + up to 4 bad.
        let code = ReedSolomon::new(11, 1).unwrap();
        let fresh = Value::from("fresh value");
        let stale = Value::from("stale value");
        let fresh_elems = encode_value(&code, &fresh);
        let stale_elems = encode_value(&code, &stale);

        let mut rx: Vec<CodedElement> = Vec::new();
        for i in 0..11 {
            if i < 2 {
                continue; // 2 slow servers: erasures
            }
            if i < 6 {
                rx.push(stale_elems[i].clone()); // 4 stale elements (e = 2f)
            } else {
                rx.push(fresh_elems[i].clone());
            }
        }
        let got = decode_elements(&code, fresh.len(), &views(&rx)).unwrap();
        assert_eq!(got, fresh);
    }

    #[test]
    fn malformed_elements_degrade_to_erasures() {
        let code = ReedSolomon::new(6, 2).unwrap();
        let v = Value::from("abcdef");
        let mut elements = encode_value(&code, &v);
        // Byzantine server truncates its element and another claims an
        // out-of-range index.
        elements[0].data = Bytes::from_static(b"x");
        elements[1].index = 99;
        let got = decode_elements(&code, v.len(), &views(&elements)).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn duplicate_positions_keep_first_claim() {
        let code = ReedSolomon::new(6, 2).unwrap();
        let v = Value::from("abcdef");
        let mut elements = encode_value(&code, &v);
        // A Byzantine server impersonates position 2 with garbage, appended
        // after the honest element — the honest one wins.
        let mut fake = elements[2].clone();
        fake.data = Bytes::from(vec![0xFF; fake.data.len()]);
        elements.push(fake);
        let got = decode_elements(&code, v.len(), &views(&elements)).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn empty_value_roundtrips() {
        let code = ReedSolomon::new(6, 1).unwrap();
        let v = Value::initial();
        let elements = encode_value(&code, &v);
        assert!(elements.iter().all(|e| e.data.is_empty()));
        let got = decode_elements(&code, 0, &views(&elements)).unwrap();
        assert!(got.is_initial());
    }

    #[test]
    fn unrecoverable_pattern_errors_out() {
        let code = ReedSolomon::new(6, 2).unwrap();
        let v = Value::from("abcdef");
        let elements = encode_value(&code, &v);
        // Only one element survives; k = 2 are needed.
        let one = [ElementView::of(&elements[0])];
        assert!(decode_elements(&code, v.len(), &one).is_err());
    }
}
