//! Arithmetic in GF(2⁸).
//!
//! The field is GF(2)\[x\] / (x⁸ + x⁴ + x³ + x² + 1) (the 0x11D polynomial,
//! the same one used by QR codes and most storage systems), with α = 2 as a
//! primitive element. Exponential and logarithm tables are generated at
//! compile time by `const fn`s, so multiplication and division are two table
//! lookups with no runtime setup.
//!
//! The slice kernel `mul_acc` instead reads one 256-entry row of a
//! compile-time product table per coefficient: one lookup per byte and no
//! zero branch. It is what the Reed–Solomon codec spends its time in.
//!
//! Addition and subtraction are both XOR (characteristic 2).

/// The reduction polynomial x⁸ + x⁴ + x³ + x² + 1 (top bit implicit).
pub const POLY: u16 = 0x11D;

/// `EXP[i] = α^i` for `i ∈ 0..512` (doubled so `mul` needs no modulo).
const EXP: [u8; 512] = build_exp();

/// `LOG[v] = log_α(v)` for `v ∈ 1..=255`; `LOG[0]` is a sentinel (unused).
const LOG: [u16; 256] = build_log();

/// `MUL[a][b] = a·b`. Held behind a reference so indexing never copies the
/// 64 KiB table, even in unoptimised builds.
const MUL: &[[u8; 256]; 256] = &build_mul();

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Duplicate the cycle so EXP[a + b] works for a, b < 255.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    exp
}

const fn build_log() -> [u16; 256] {
    let exp = build_exp();
    let mut log = [0u16; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u16;
        i += 1;
    }
    log
}

const fn build_mul() -> [[u8; 256]; 256] {
    let mut table = [[0u8; 256]; 256];
    let mut a = 1;
    while a < 256 {
        let mut b = 1;
        while b < 256 {
            table[a][b] = EXP[(LOG[a] + LOG[b]) as usize];
            b += 1;
        }
        a += 1;
    }
    table
}

/// `dst[i] ^= c·src[i]` for every `i`: the multiply-accumulate the
/// Reed–Solomon codec applies to whole elements.
///
/// # Panics
///
/// Panics if the slices differ in length (a codec bug; element lengths are
/// checked where elements enter).
#[inline]
pub(crate) fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "mul_acc over unequal slices");
    let row = &MUL[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

/// Field addition (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[(LOG[a as usize] + LOG[b as usize]) as usize]
    }
}

/// Field division.
///
/// # Panics
///
/// Panics on division by zero (a decoder bug, never data-dependent).
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "GF(256) division by zero");
    if a == 0 {
        0
    } else {
        EXP[(LOG[a as usize] + 255 - LOG[b as usize]) as usize]
    }
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics on zero.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "GF(256) inverse of zero");
    EXP[(255 - LOG[a as usize]) as usize]
}

/// `α^e` for any exponent (reduced mod 255).
#[inline]
pub fn alpha_pow(e: i64) -> u8 {
    EXP[e.rem_euclid(255) as usize]
}

/// `a^e` by log arithmetic (`0^0 = 1`).
pub fn pow(a: u8, e: u64) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = (LOG[a as usize] as u64 * e) % 255;
    EXP[l as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_generates_the_whole_group() {
        let mut seen = [false; 256];
        for i in 0..255 {
            let v = alpha_pow(i);
            assert!(!seen[v as usize], "α^{i} repeated");
            seen[v as usize] = true;
        }
        assert!(!seen[0], "zero is not a power of α");
    }

    #[test]
    fn mul_matches_carryless_reference() {
        // Slow reference: schoolbook carry-less multiply + reduction.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut acc: u8 = 0;
            while b != 0 {
                if b & 1 != 0 {
                    acc ^= a;
                }
                let carry = a & 0x80 != 0;
                a <<= 1;
                if carry {
                    a ^= (POLY & 0xFF) as u8;
                }
                b >>= 1;
            }
            acc
        }
        for a in 0..=255u8 {
            for b in [0u8, 1, 2, 3, 5, 29, 76, 128, 200, 255] {
                assert_eq!(mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn mul_acc_matches_scalar_mul() {
        let src: Vec<u8> = (0..=255).collect();
        for c in 0..=255u8 {
            let mut dst = vec![0x5A; 256];
            mul_acc(&mut dst, &src, c);
            for (d, s) in dst.iter().zip(&src) {
                assert_eq!(*d, 0x5A ^ mul(c, *s), "c={c} s={s}");
            }
        }
    }

    #[test]
    fn field_axioms_hold() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a·a⁻¹ = 1 for a={a}");
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(add(a, a), 0, "characteristic 2");
        }
        // Distributivity spot checks across the table edges.
        for (a, b, c) in [(7u8, 200u8, 255u8), (128, 128, 1), (91, 17, 83)] {
            assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }
    }

    #[test]
    fn div_is_mul_inverse() {
        for a in 0..=255u8 {
            for b in [1u8, 2, 77, 130, 255] {
                assert_eq!(mul(div(a, b), b), a);
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        div(1, 0);
    }

    #[test]
    fn pow_and_alpha_pow_agree() {
        for e in 0..600i64 {
            assert_eq!(alpha_pow(e), pow(2, e as u64));
        }
        assert_eq!(alpha_pow(-1), inv(2));
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }
}
