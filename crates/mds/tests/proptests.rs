//! Property-based tests for the MDS substrate.
//!
//! These check the algebraic laws of GF(2⁸), the MDS guarantees of the
//! Reed–Solomon code under randomized error/erasure patterns, the
//! striping layer's roundtrip over arbitrary byte strings, and that the
//! slice-wise decoder agrees with the per-column reference decoder.
//!
//! The suite is driven by the deterministic [`DetRng`] (reproducible,
//! shrinking-free); the GF(2⁸) laws are checked exhaustively where the
//! domain is small enough.

use safereg_common::rng::DetRng;
use safereg_common::value::Value;
use safereg_mds::gf256;
use safereg_mds::rs::ReedSolomon;
use safereg_mds::stripe::{
    column_count, decode_columns, decode_elements, decode_verified, encode_value, Decoded,
    ElementView,
};

#[test]
fn gf256_mul_is_commutative_and_inverse_law_holds_exhaustively() {
    for a in 0u8..=255 {
        for b in 0u8..=255 {
            assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
        }
        if a != 0 {
            assert_eq!(gf256::mul(a, gf256::inv(a)), 1);
            assert_eq!(gf256::div(gf256::mul(a, 77), a), 77);
        }
    }
}

#[test]
fn gf256_associates_and_distributes() {
    // The full triple product space is 2²⁴ points; a deterministic sample
    // of 200k triples is plenty to catch a broken table.
    let mut rng = DetRng::seed_from(0x6F25_6A55);
    for _ in 0..200_000 {
        let (a, b, c) = (
            rng.next_u64() as u8,
            rng.next_u64() as u8,
            rng.next_u64() as u8,
        );
        assert_eq!(
            gf256::mul(a, gf256::mul(b, c)),
            gf256::mul(gf256::mul(a, b), c)
        );
        assert_eq!(
            gf256::mul(a, gf256::add(b, c)),
            gf256::add(gf256::mul(a, b), gf256::mul(a, c))
        );
    }
}

#[test]
fn rs_roundtrip_within_capability() {
    let mut rng = DetRng::seed_from(0x25_C0DE);
    for _ in 0..512 {
        let k = 1 + rng.index(7);
        let parity = rng.index(10);
        let n = k + parity;
        let code = ReedSolomon::new(n, k).unwrap();
        let msg_byte = rng.next_u64() as u8;
        let msg: Vec<u8> = (0..k).map(|i| msg_byte.wrapping_add(i as u8)).collect();
        let cw = code.encode(&msg);

        // Derive a random error/erasure pattern within 2ν + ρ ≤ parity.
        let rho = rng.index(parity + 1);
        let max_errors = (parity - rho) / 2;
        let nu = if max_errors == 0 {
            0
        } else {
            rng.index(max_errors + 1)
        };

        let mut rx: Vec<Option<u8>> = cw.iter().copied().map(Some).collect();
        let mut positions: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut positions);
        for (count, &p) in positions.iter().enumerate() {
            if count < rho {
                rx[p] = None;
            } else if count < rho + nu {
                rx[p] = Some(cw[p] ^ (1 + rng.index(255) as u8));
            }
        }

        let fixed = code.decode(&rx).unwrap();
        assert_eq!(code.message_of(&fixed), &msg[..]);
    }
}

#[test]
fn rs_never_accepts_non_codeword() {
    let mut rng = DetRng::seed_from(0xBAD_C0DE);
    for _ in 0..512 {
        // Whatever the decoder returns, it is a valid codeword — a reader
        // can always detect garbage by re-encoding.
        let k = 1 + rng.index(5);
        let parity = 1 + rng.index(7);
        let n = k + parity;
        let code = ReedSolomon::new(n, k).unwrap();
        let corrupt_len = 1 + rng.index(19);
        let mut corrupt = vec![0u8; corrupt_len];
        rng.fill_bytes(&mut corrupt);
        let rx: Vec<Option<u8>> = (0..n).map(|i| Some(corrupt[i % corrupt.len()])).collect();
        if let Ok(word) = code.decode(&rx) {
            assert!(code.is_codeword(&word));
        }
    }
}

#[test]
fn stripe_roundtrip_any_length() {
    let mut rng = DetRng::seed_from(0x571_219E);
    for case in 0..512 {
        // BCSR-shaped code: n = 5f + 1 + extra, k = n − 5f. Sweep lengths
        // 0..200 deterministically so the empty and one-column edges are
        // always covered.
        let f = 1 + rng.index(2);
        let n = 5 * f + 3;
        let k = n - 5 * f;
        let code = ReedSolomon::new(n, k).unwrap();
        let len = case % 200;
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let v = Value::from(data);
        let elements = encode_value(&code, &v);
        let views: Vec<ElementView<'_>> = elements.iter().map(ElementView::of).collect();
        let back = decode_elements(&code, v.len(), &views).unwrap();
        assert_eq!(back, v);
    }
}

#[test]
fn stripe_survives_f_erasures_and_2f_errors() {
    let mut rng = DetRng::seed_from(0x0571_2BAD);
    for _ in 0..512 {
        let f = 1usize;
        let n = 5 * f + 1;
        let code = ReedSolomon::new(n, n - 5 * f).unwrap();
        let len = 1 + rng.index(99);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let fresh = Value::from(data.clone());
        let mut stale_bytes = data;
        stale_bytes[0] ^= 0xA5; // a genuinely different older value
        let stale = Value::from(stale_bytes);

        let fresh_elems = encode_value(&code, &fresh);
        let stale_elems = encode_value(&code, &stale);

        let drop = rng.index(n);
        let mut rx: Vec<ElementView<'_>> = Vec::new();
        let mut corrupted = 0;
        for i in 0..n {
            if i == drop {
                continue; // f erasures
            }
            if corrupted < 2 * f {
                rx.push(ElementView::of(&stale_elems[i]));
                corrupted += 1;
            } else {
                rx.push(ElementView::of(&fresh_elems[i]));
            }
        }
        let got = decode_elements(&code, fresh.len(), &rx).unwrap();
        assert_eq!(got, fresh);
    }
}

/// Checks the slice-wise decoder against the per-column reference: both
/// `Ok` with the same value, or both `Err`. On success the returned
/// codeword must be exactly what `encode_value` gives for the value.
fn agrees_with_oracle(
    code: &ReedSolomon,
    value_len: usize,
    views: &[ElementView<'_>],
) -> Option<Decoded> {
    let fast = decode_verified(code, value_len, views);
    let oracle = decode_columns(code, value_len, views);
    match (&fast, &oracle) {
        (Ok(d), Ok(v)) => {
            assert_eq!(&d.value, v, "[{}, {}] len {value_len}", code.n(), code.k());
            assert_eq!(d.elements, encode_value(code, &d.value));
        }
        (Err(_), Err(_)) => {}
        _ => panic!(
            "[{}, {}] len {value_len}: fast {:?} vs oracle {:?}",
            code.n(),
            code.k(),
            fast.as_ref().map(|d| &d.located),
            oracle
        ),
    }
    fast.ok()
}

/// XORs non-zero noise into `data[range]`.
fn corrupt(rng: &mut DetRng, data: &mut [u8], range: std::ops::Range<usize>) {
    for b in &mut data[range] {
        *b ^= 1 + rng.index(255) as u8;
    }
}

/// A random contiguous, non-empty column range of `0..cols`.
fn some_columns(rng: &mut DetRng, cols: usize) -> std::ops::Range<usize> {
    let start = rng.index(cols);
    start..start + 1 + rng.index(cols - start)
}

#[test]
fn encoded_columns_are_codewords_and_systematic_elements_are_chunks() {
    let mut rng = DetRng::seed_from(0xC0_1DE5);
    for case in 0..200 {
        let k = 1 + rng.index(8);
        let n = k + rng.index(10);
        let code = ReedSolomon::new(n, k).unwrap();
        let mut data = vec![0u8; case];
        rng.fill_bytes(&mut data);
        let elements = encode_value(&code, &Value::from(data.clone()));
        let cols = column_count(case, k);
        for c in 0..cols {
            let column: Vec<u8> = elements.iter().map(|e| e.data[c]).collect();
            assert!(code.is_codeword(&column), "[{n}, {k}] column {c}");
        }
        let mut padded = data;
        padded.resize(k * cols, 0);
        for (i, chunk) in padded.chunks(cols.max(1)).enumerate() {
            assert_eq!(&elements[n - k + i].data[..], chunk, "chunk {i}");
        }
    }
}

#[test]
fn verified_decode_agrees_with_per_column_oracle() {
    let mut rng = DetRng::seed_from(0x0_7AC1E);
    for case in 0..900 {
        // Thirds: BCSR at n = 5f+1 and n = 5f+3 (k = n − 5f), then any [n, k].
        let f = 1 + rng.index(2);
        let (n, k) = match case % 3 {
            0 => (5 * f + 1, 1),
            1 => (5 * f + 3, 3),
            _ => {
                let k = 1 + rng.index(7);
                (k + rng.index(10), k)
            }
        };
        let code = ReedSolomon::new(n, k).unwrap();
        let len = case % 300;
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let value = Value::from(data);
        let cols = column_count(len, k);
        let mut rx: Vec<(usize, Vec<u8>)> = encode_value(&code, &value)
            .iter()
            .map(|e| (e.index as usize, e.data.to_vec()))
            .collect();

        // Random erasures, then liars, each corrupting its whole element or
        // a column range. In the any-[n, k] third the liars may exceed
        // 2ν + ρ ≤ n − k.
        let budget = n - k;
        let rho = rng.index(budget + 1);
        let max_liars = if case % 3 == 2 {
            n - rho
        } else {
            (budget - rho) / 2
        };
        let liars = rng.index(max_liars + 1);
        rng.shuffle(&mut rx);
        rx.truncate(n - rho);
        let mut liar_positions = Vec::new();
        if cols > 0 {
            for (pos, elem) in rx.iter_mut().take(liars) {
                let columns = if rng.index(2) == 0 {
                    0..cols
                } else {
                    some_columns(&mut rng, cols)
                };
                corrupt(&mut rng, elem, columns);
                liar_positions.push(*pos);
            }
        }
        liar_positions.sort_unstable();

        let views: Vec<ElementView<'_>> = rx
            .iter()
            .map(|(index, data)| ElementView {
                index: *index,
                data,
            })
            .collect();
        let decoded = agrees_with_oracle(&code, len, &views);
        if 2 * liar_positions.len() + rho <= budget {
            // Within capability the fast path decodes and only ever
            // locates actual liars.
            let d = decoded.expect("within capability");
            assert_eq!(d.value, value);
            let located = d.located.expect("no per-column fallback within capability");
            assert!(located.iter().all(|p| liar_positions.contains(p)));
        }
    }
}

#[test]
fn two_column_disjoint_liars_are_both_located() {
    // f = 2 at n = 5f+1 and 5f+3: 3f erasures (f missing + 2f stale) and
    // f liars corrupting disjoint column ranges, 2·2 + 6 = 10 = n − k. The
    // first dirty column shows only one liar, so the second is found by the
    // next pass of the locate loop.
    let mut rng = DetRng::seed_from(0x2_1A25);
    for (n, k) in [(11, 1), (13, 3)] {
        let code = ReedSolomon::new(n, k).unwrap();
        for len in [2 * k, 37, 299] {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let value = Value::from(data);
            let cols = column_count(len, k);
            let mut rx: Vec<(usize, Vec<u8>)> = encode_value(&code, &value)
                .iter()
                .map(|e| (e.index as usize, e.data.to_vec()))
                .collect();
            rng.shuffle(&mut rx);
            rx.truncate(n - 6);
            let half = cols / 2;
            corrupt(&mut rng, &mut rx[0].1, 0..half);
            corrupt(&mut rng, &mut rx[1].1, half..cols);
            let mut liars = vec![rx[0].0, rx[1].0];
            liars.sort_unstable();
            let views: Vec<ElementView<'_>> = rx
                .iter()
                .map(|(index, data)| ElementView {
                    index: *index,
                    data,
                })
                .collect();
            let d = agrees_with_oracle(&code, len, &views).expect("within capability");
            assert_eq!(d.value, value);
            assert_eq!(d.located, Some(liars), "[{n}, {k}] len {len}");
        }
    }
}

#[test]
fn non_zero_padding_decodes_like_the_oracle() {
    // A codeword whose message runs past `value_len` (a Byzantine writer's,
    // or a lying length claim): the value is the truncated prefix and the
    // returned codeword is the truncated value's, not the received one.
    let mut rng = DetRng::seed_from(0x9AD);
    for (n, k) in [(11, 6), (8, 3), (16, 11)] {
        let code = ReedSolomon::new(n, k).unwrap();
        let cols = 5;
        let mut full = vec![0u8; k * cols];
        rng.fill_bytes(&mut full);
        full[k * cols - 1] |= 1;
        let elements = encode_value(&code, &Value::from(full.clone()));
        let mut views: Vec<ElementView<'_>> = elements.iter().map(ElementView::of).collect();
        views.remove(n - 1);
        for len in (k * (cols - 1) + 1)..(k * cols) {
            let d = agrees_with_oracle(&code, len, &views).expect("decodes");
            assert_eq!(d.value.as_bytes(), &full[..len]);
            assert_ne!(d.elements, elements);
        }
    }
}

#[test]
fn sixty_four_kib_with_a_half_element_liar_agrees_with_the_oracle() {
    let code = ReedSolomon::new(11, 6).unwrap();
    let mut rng = DetRng::seed_from(0x64_C0DE);
    let mut data = vec![0u8; 64 * 1024];
    rng.fill_bytes(&mut data);
    let value = Value::from(data);
    let cols = column_count(value.len(), 6);
    let mut rx: Vec<(usize, Vec<u8>)> = encode_value(&code, &value)
        .iter()
        .map(|e| (e.index as usize, e.data.to_vec()))
        .collect();
    rx.remove(0); // a missing parity element
    corrupt(&mut rng, &mut rx[6].1, 0..cols / 2); // a systematic liar
    let views: Vec<ElementView<'_>> = rx
        .iter()
        .map(|(index, data)| ElementView {
            index: *index,
            data,
        })
        .collect();
    let d = agrees_with_oracle(&code, value.len(), &views).expect("within capability");
    assert_eq!(d.value, value);
    assert_eq!(d.located, Some(vec![7]));
}

#[test]
fn sixty_four_kib_at_the_deployed_shape_agrees_with_the_oracle_for_up_to_two_liars() {
    // The benchmark's `large_coded` read: a 64 KiB value at [11, 6] with
    // element 0 missing, then zero, one and two lying elements. One
    // erasure and two liars spend the whole budget, 2·2 + 1 = 5 = n − k.
    let code = ReedSolomon::new(11, 6).unwrap();
    let mut rng = DetRng::seed_from(0x64_D3F);
    let mut data = vec![0u8; 64 * 1024];
    rng.fill_bytes(&mut data);
    let value = Value::from(data);
    let cols = column_count(value.len(), 6);
    let mut rx: Vec<(usize, Vec<u8>)> = encode_value(&code, &value)
        .iter()
        .map(|e| (e.index as usize, e.data.to_vec()))
        .collect();
    rx.remove(0);
    // With element 0 gone, element `pos` sits at `rx[pos - 1]`. A parity
    // liar over a column range, then a systematic liar over its whole
    // element.
    let liars = [(2, some_columns(&mut rng, cols)), (8, 0..cols)];
    for count in 0..=liars.len() {
        if count > 0 {
            let (pos, columns) = &liars[count - 1];
            corrupt(&mut rng, &mut rx[pos - 1].1, columns.clone());
        }
        let views: Vec<ElementView<'_>> = rx
            .iter()
            .map(|(index, data)| ElementView {
                index: *index,
                data,
            })
            .collect();
        let d = agrees_with_oracle(&code, value.len(), &views).expect("within capability");
        assert_eq!(d.value, value, "{count} liars");
        let located: Vec<usize> = liars[..count].iter().map(|(pos, _)| *pos).collect();
        assert_eq!(d.located, Some(located), "{count} liars");
    }
}
