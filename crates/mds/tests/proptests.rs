//! Property-based tests for the MDS substrate.
//!
//! These check the algebraic laws of GF(2⁸), the MDS guarantees of the
//! Reed–Solomon code under randomized error/erasure patterns, and the
//! striping layer's roundtrip over arbitrary byte strings.
//!
//! The suite is driven by the deterministic [`DetRng`] (reproducible,
//! shrinking-free); the GF(2⁸) laws are checked exhaustively where the
//! domain is small enough.

use safereg_common::rng::DetRng;
use safereg_common::value::Value;
use safereg_mds::gf256;
use safereg_mds::rs::ReedSolomon;
use safereg_mds::stripe::{decode_elements, encode_value, ElementView};

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
