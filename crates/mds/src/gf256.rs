//! Arithmetic in GF(2⁸).
//!
//! The field is GF(2)\[x\] / (x⁸ + x⁴ + x³ + x² + 1) (the 0x11D polynomial,
//! the same one used by QR codes and most storage systems), with α = 2 as a
//! primitive element. Exponential and logarithm tables are generated at
//! compile time by `const fn`s, so multiplication and division are two table
//! lookups with no runtime setup.
//!
//! The slice kernel `mul_acc` is what the Reed–Solomon codec spends its
//! time in. Two implementations sit behind one dispatch, chosen at runtime
//! on every call from std's cached feature detection: on x86_64 CPUs that
//! report AVX2, the split-nibble shuffle multiply of Plank, Greenan &
//! Miller ("Screaming Fast Galois Field Arithmetic Using Intel SIMD
//! Instructions", FAST 2013), 32 bytes per step, written with `std::arch`;
//! everywhere else, for slices under 32 bytes and for the last `len % 32`
//! bytes, one lookup per byte in a 256-entry row of a compile-time product
//! table. Both produce identical bytes, which the tests check directly on
//! each kernel.
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
/// Reed–Solomon codec applies to whole elements, on the fastest kernel this
/// CPU supports.
///
/// # Panics
///
/// Panics if the slices differ in length (a codec bug; element lengths are
/// checked where elements enter).
#[inline]
pub(crate) fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    Kernel::detect().mul_acc(dst, src, c);
}

/// The slice kernel `mul_acc` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// One product-table lookup per byte; runs on every target.
    Scalar,
    /// x86_64 AVX2 nibble shuffles; the proof token exists only on CPUs
    /// that report AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2(avx2::Cpu),
}

impl Kernel {
    /// The fastest kernel the running CPU supports. Feature detection is
    /// cached by std, so this costs a few loads.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = avx2::Cpu::detect() {
            return Kernel::Avx2(cpu);
        }
        Kernel::Scalar
    }

    /// `dst[i] ^= c·src[i]` for every `i`.
    fn mul_acc(self, dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "mul_acc over unequal slices");
        match self {
            Kernel::Scalar => mul_acc_row(dst, src, &MUL[c as usize]),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2(cpu) => cpu.mul_acc(dst, src, c),
        }
    }
}

/// The scalar kernel: `dst[i] ^= row[src[i]]`, where `row` is `MUL[c]`.
/// No zero branch; `c = 0` reads a row of zeros.
fn mul_acc_row(dst: &mut [u8], src: &[u8], row: &[u8; 256]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

/// The AVX2 kernel. Multiplication by `c` is linear over GF(2), so
/// `c·s = c·(s & 0xF) ^ c·(s & 0xF0)`: two 16-entry tables, one per
/// nibble, looked up 32 bytes at a time with `vpshufb`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::MUL;

    /// Proof that the running CPU has AVX2, the one feature [`mul_acc`]
    /// enables: the private field means only [`Cpu::detect`] can make one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Cpu(());

    impl Cpu {
        /// `Some` when the CPU reports AVX2.
        pub(super) fn detect() -> Option<Cpu> {
            is_x86_feature_detected!("avx2").then_some(Cpu(()))
        }

        /// `dst[i] ^= c·src[i]` for every `i`; the slices have equal
        /// length. Slices shorter than one 32-byte step (the symbol codec's
        /// one-byte elements, a `k`-byte matrix row) skip building the
        /// tables and go to the scalar row lookup.
        pub(super) fn mul_acc(self, dst: &mut [u8], src: &[u8], c: u8) {
            if dst.len() < 32 {
                return super::mul_acc_row(dst, src, &MUL[c as usize]);
            }
            // SAFETY: `self` is a `Cpu`, which only `Cpu::detect` builds and
            // only after std reported avx2 — the feature `mul_acc` is
            // compiled with.
            unsafe { mul_acc(dst, src, c) }
        }
    }

    #[target_feature(enable = "avx2")]
    fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
        let row = &MUL[c as usize];
        // `vpshufb` looks up within each 128-bit lane, so both lanes hold
        // the same 16 entries: `c·i` for the low nibble, `c·(i << 4)` for
        // the high one.
        let lo_table: [u8; 32] = std::array::from_fn(|i| row[i & 0xF]);
        let hi_table: [u8; 32] = std::array::from_fn(|i| row[(i & 0xF) << 4]);
        let (lo, hi) = (load(&lo_table), load(&hi_table));
        let nibble = _mm256_set1_epi8(0x0F);

        let (dst_blocks, dst_tail) = dst.as_chunks_mut::<32>();
        let (src_blocks, src_tail) = src.as_chunks::<32>();
        for (d, s) in dst_blocks.iter_mut().zip(src_blocks) {
            let s = load(s);
            let s_lo = _mm256_and_si256(s, nibble);
            // No byte-wise shift exists: shift 64-bit lanes and mask off the
            // bits that crossed in from the neighbouring byte.
            let s_hi = _mm256_and_si256(_mm256_srli_epi64::<4>(s), nibble);
            let product =
                _mm256_xor_si256(_mm256_shuffle_epi8(lo, s_lo), _mm256_shuffle_epi8(hi, s_hi));
            store(d, _mm256_xor_si256(load(d), product));
        }
        super::mul_acc_row(dst_tail, src_tail, row);
    }

    /// Loads 32 bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(bytes: &[u8; 32]) -> __m256i {
        // SAFETY: `bytes` is 32 readable bytes, exactly one `__m256i`, and
        // `_mm256_loadu_si256` has no alignment requirement.
        unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) }
    }

    /// Stores `v` into 32 bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(bytes: &mut [u8; 32], v: __m256i) {
        // SAFETY: `bytes` is 32 writable bytes, exactly one `__m256i`, and
        // `_mm256_storeu_si256` has no alignment requirement.
        unsafe { _mm256_storeu_si256(bytes.as_mut_ptr().cast(), v) }
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
    use safereg_common::rng::DetRng;

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

    /// Every kernel this host can run, named directly rather than through
    /// dispatch: the scalar one always, AVX2 when the CPU has it.
    fn kernels() -> Vec<Kernel> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut kernels = vec![Kernel::Scalar];
        #[cfg(target_arch = "x86_64")]
        match avx2::Cpu::detect() {
            Some(cpu) => kernels.push(Kernel::Avx2(cpu)),
            None => eprintln!("CPU lacks AVX2: vector kernel skipped"),
        }
        kernels
    }

    #[test]
    fn every_kernel_matches_the_row_lookup_at_every_length_and_offset() {
        // Lengths around the 32-byte step and its tail, one 64 KiB / k=6
        // element, and a whole 64 KiB value. Each (c, len) case starts `dst`
        // and `src` at their own offset in 0..32, and every offset on each
        // side comes up for every length, so unaligned loads and stores,
        // the vector body and the scalar tail are all exercised.
        const PAD: usize = 32;
        let lengths: Vec<usize> = (0..=100).chain([10_923, 65_536]).collect();
        let mut rng = DetRng::seed_from(0x6F_256);
        let mut src = vec![0u8; 65_536 + 2 * PAD];
        let mut dst_init = vec![0u8; src.len()];
        rng.fill_bytes(&mut src);
        rng.fill_bytes(&mut dst_init);
        let mut dst = dst_init.clone();
        let mut expect = dst_init.clone();
        for kernel in kernels() {
            for c in 0..=255u8 {
                let row = &MUL[c as usize];
                for &len in &lengths {
                    let d_off = (c as usize + len) % PAD;
                    let s_off = (13 * c as usize + 7 * len + 5) % PAD;
                    let d = d_off..d_off + len;
                    let s = &src[s_off..s_off + len];
                    dst.copy_from_slice(&dst_init);
                    kernel.mul_acc(&mut dst[d.clone()], s, c);
                    expect.copy_from_slice(&dst_init);
                    for (e, x) in expect[d].iter_mut().zip(s) {
                        *e ^= row[*x as usize];
                    }
                    // The whole buffer, so a store past either end fails too.
                    assert!(
                        dst == expect,
                        "{kernel:?} c={c} len={len} dst+{d_off} src+{s_off}"
                    );
                }
            }
        }
    }

    /// A host that reports AVX2 but multiplies on the scalar kernel would
    /// pass every value test while losing the speed-up; this one fails.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dispatch_picks_avx2_whenever_the_cpu_reports_avx2() {
        let picked = Kernel::detect();
        if is_x86_feature_detected!("avx2") {
            assert!(matches!(picked, Kernel::Avx2(_)), "picked {picked:?}");
        } else {
            eprintln!("CPU lacks AVX2: dispatch must pick the scalar kernel");
            assert_eq!(picked, Kernel::Scalar);
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
