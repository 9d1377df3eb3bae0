//! Systematic Reed–Solomon codes over GF(2⁸) with error-and-erasure
//! decoding.
//!
//! An `[n, k]` code here has `2t = n − k` parity symbols and corrects any
//! pattern of `ρ` erasures (positions known) and `ν` errors (positions
//! unknown) with `2ν + ρ ≤ n − k` — the property §IV-A of the paper relies
//! on with `ρ ≤ f` missing servers and `ν ≤ e = 2f` stale/Byzantine
//! elements when `k = n − 5f`.
//!
//! The code is held as its `n × k` generator rows, derived once in
//! [`ReedSolomon::new`] from the generator polynomial. Encoding is one pass
//! over the `n − k` parity rows, applied either to one column of symbols
//! ([`ReedSolomon::encode`]) or to whole elements at once (the striping
//! layer); the striping layer also inverts `k` rows to solve for a message.
//!
//! The symbol decoder [`ReedSolomon::decode`] corrects one column at a
//! time. Its pipeline (textbook, e.g. Blahut §7.4): syndromes → erasure
//! locator Γ → Forney syndromes Ξ = S·Γ mod x^{2t} → Berlekamp–Massey on
//! Ξ_ρ.. → error locator σ → Chien search → errata locator Λ = Γ·σ →
//! errata evaluator Ω = S·Λ mod x^{2t} → Forney's formula
//! `e_i = X_i·Ω(X_i⁻¹)/Λ′(X_i⁻¹)` → correction → syndrome re-check.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use crate::gf256;
use crate::poly;

/// Errors from code construction or decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdsError {
    /// Invalid `[n, k]` parameters.
    BadParameters {
        /// Codeword length requested.
        n: usize,
        /// Dimension requested.
        k: usize,
    },
    /// Input had the wrong number of symbols.
    LengthMismatch {
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// More erasures than parity symbols; information is lost.
    TooManyErasures {
        /// Number of erased positions.
        erasures: usize,
        /// Parity symbol budget `n − k`.
        budget: usize,
    },
    /// The error pattern exceeded the code's correction capability, or the
    /// received word is not within distance of any codeword.
    DecodeFailure,
}

impl fmt::Display for MdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdsError::BadParameters { n, k } => {
                write!(
                    f,
                    "invalid MDS parameters [n={n}, k={k}]: need 1 <= k <= n <= 255"
                )
            }
            MdsError::LengthMismatch { expected, got } => {
                write!(f, "expected {expected} symbols, got {got}")
            }
            MdsError::TooManyErasures { erasures, budget } => {
                write!(
                    f,
                    "{erasures} erasures exceed the parity budget of {budget}"
                )
            }
            MdsError::DecodeFailure => write!(f, "error pattern exceeds correction capability"),
        }
    }
}

impl Error for MdsError {}

/// A systematic `[n, k]` Reed–Solomon code.
///
/// Codeword layout: positions `0..n−k` hold parity, positions `n−k..n` hold
/// the message (so [`ReedSolomon::message_of`] is a slice). Position `i`
/// has locator `αⁱ`.
///
/// # Examples
///
/// ```
/// use safereg_mds::rs::ReedSolomon;
///
/// let code = ReedSolomon::new(10, 4)?;
/// let cw = code.encode(&[1, 2, 3, 4]);
/// let mut rx: Vec<Option<u8>> = cw.iter().copied().map(Some).collect();
/// rx[0] = None;        // erasure
/// rx[5] = Some(99);    // error at unknown position
/// rx[9] = Some(0);     // another error
/// let fixed = code.decode(&rx)?;
/// assert_eq!(code.message_of(&fixed), &[1, 2, 3, 4]);
/// # Ok::<(), safereg_mds::MdsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    /// Generator rows, `n × k` row-major: symbol `i` of the codeword of
    /// message `m` is `Σⱼ rows[i·k + j]·mⱼ`. Rows `n−k..n` are the identity.
    rows: Vec<u8>,
}

impl ReedSolomon {
    /// Builds an `[n, k]` code.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::BadParameters`] unless `1 ≤ k ≤ n ≤ 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, MdsError> {
        if k == 0 || k > n || n > 255 {
            return Err(MdsError::BadParameters { n, k });
        }
        let two_t = n - k;
        // g(x) = ∏_{j<2t} (x + αʲ); ascending, so (x + αʲ) is [αʲ, 1].
        let mut gen = vec![1u8];
        for j in 0..two_t {
            gen = poly::mul(&gen, &[gf256::alpha_pow(j as i64), 1]);
        }
        // A codeword is C(x) = M(x)·x^{2t} + (M(x)·x^{2t} mod g(x)), linear in
        // M, so message symbol j contributes column j of the parity rows:
        // the coefficients of x^{2t+j} mod g(x).
        let mut rows = vec![0u8; n * k];
        for j in 0..k {
            let mut monomial = vec![0u8; two_t + j + 1];
            monomial[two_t + j] = 1;
            for (i, c) in poly::rem(&monomial, &gen).iter().enumerate() {
                rows[i * k + j] = *c;
            }
            rows[(two_t + j) * k + j] = 1;
        }
        Ok(ReedSolomon { n, k, rows })
    }

    /// Codeword length `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Message dimension `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity symbols `n − k` (= `2t`).
    pub fn parity(&self) -> usize {
        self.n - self.k
    }

    /// Encodes `k` message symbols into an `n`-symbol codeword.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != k` — an internal-caller contract; the
    /// striping layer always supplies exactly `k` symbols.
    pub fn encode(&self, message: &[u8]) -> Vec<u8> {
        assert_eq!(message.len(), self.k, "message must have exactly k symbols");
        let mut cw = vec![0u8; self.n];
        cw[self.parity()..].copy_from_slice(message);
        self.fill_parity(&mut cw, 1);
        cw
    }

    /// Generator row of codeword position `i` (`k` coefficients).
    pub(crate) fn row(&self, i: usize) -> &[u8] {
        &self.rows[i * self.k..(i + 1) * self.k]
    }

    /// Encodes a codeword stored element by element: position `i` is
    /// `word[i·len..(i+1)·len]`. The message elements `n−k..n` must be in
    /// place and the parity elements `0..n−k` zero; this fills the parity,
    /// one coefficient × element multiply-accumulate per generator entry.
    /// [`ReedSolomon::encode`] is the `len = 1` case.
    ///
    /// # Panics
    ///
    /// Panics if `word.len() != n·len`.
    pub(crate) fn fill_parity(&self, word: &mut [u8], len: usize) {
        assert_eq!(word.len(), self.n * len, "word must hold n elements");
        let (parity, message) = word.split_at_mut(self.parity() * len);
        for i in 0..self.parity() {
            let out = &mut parity[i * len..(i + 1) * len];
            for (j, &c) in self.row(i).iter().enumerate() {
                gf256::mul_acc(out, &message[j * len..(j + 1) * len], c);
            }
        }
    }

    /// The `k × k` matrix (row-major) that maps the symbols at `positions`
    /// back to the message: the inverse of their generator rows.
    ///
    /// # Panics
    ///
    /// Panics unless `positions` holds `k` distinct positions below `n`.
    pub(crate) fn decoding_matrix(&self, positions: &[usize]) -> Vec<u8> {
        let k = self.k;
        assert_eq!(positions.len(), k, "need exactly k positions");
        // Gauss–Jordan on [A | I], where A stacks the chosen rows.
        let mut a: Vec<u8> = positions
            .iter()
            .flat_map(|&i| self.row(i))
            .copied()
            .collect();
        let mut inv = vec![0u8; k * k];
        for i in 0..k {
            inv[i * k + i] = 1;
        }
        for col in 0..k {
            let pivot = (col..k)
                .find(|&r| a[r * k + col] != 0)
                .expect("any k rows of an MDS generator are independent");
            // Column `col` of A after the swap, read before A changes.
            let mut factors: Vec<u8> = (0..k).map(|r| a[r * k + col]).collect();
            factors.swap(col, pivot);
            let scale = gf256::inv(factors[col]);
            for m in [&mut a, &mut inv] {
                for j in 0..k {
                    m.swap(col * k + j, pivot * k + j);
                }
                for x in &mut m[col * k..(col + 1) * k] {
                    *x = gf256::mul(*x, scale);
                }
                let pivot_row = m[col * k..(col + 1) * k].to_vec();
                for r in (0..k).filter(|&r| r != col) {
                    gf256::mul_acc(&mut m[r * k..(r + 1) * k], &pivot_row, factors[r]);
                }
            }
        }
        inv
    }

    /// The message symbols of a codeword (systematic positions).
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n`.
    pub fn message_of<'a>(&self, codeword: &'a [u8]) -> &'a [u8] {
        assert_eq!(
            codeword.len(),
            self.n,
            "codeword must have exactly n symbols"
        );
        &codeword[self.parity()..]
    }

    /// Returns `true` when `word` is a valid codeword (all syndromes zero).
    pub fn is_codeword(&self, word: &[u8]) -> bool {
        word.len() == self.n && self.syndromes(word).iter().all(|s| *s == 0)
    }

    fn syndromes(&self, word: &[u8]) -> Vec<u8> {
        (0..self.parity())
            .map(|j| poly::eval(word, gf256::alpha_pow(j as i64)))
            .collect()
    }

    /// Decodes a received word with erasures (`None`) and unknown errors,
    /// returning the corrected codeword.
    ///
    /// # Errors
    ///
    /// * [`MdsError::LengthMismatch`] — `received.len() != n`.
    /// * [`MdsError::TooManyErasures`] — `ρ > n − k`.
    /// * [`MdsError::DecodeFailure`] — `2ν + ρ > n − k`, or the word is not
    ///   within the correction radius of any codeword.
    pub fn decode(&self, received: &[Option<u8>]) -> Result<Vec<u8>, MdsError> {
        if received.len() != self.n {
            return Err(MdsError::LengthMismatch {
                expected: self.n,
                got: received.len(),
            });
        }
        let two_t = self.parity();
        let erasures: Vec<usize> = received
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
            .collect();
        if erasures.len() > two_t {
            return Err(MdsError::TooManyErasures {
                erasures: erasures.len(),
                budget: two_t,
            });
        }
        let mut word: Vec<u8> = received.iter().map(|s| s.unwrap_or(0)).collect();

        let synd = self.syndromes(&word);
        if synd.iter().all(|s| *s == 0) {
            // Already a codeword (erasures, if any, happened to be zeros).
            return Ok(word);
        }

        // Erasure locator Γ(x) = ∏ (1 + αⁱ x).
        let mut gamma = vec![1u8];
        for i in &erasures {
            gamma = poly::mul(&gamma, &[1, gf256::alpha_pow(*i as i64)]);
        }

        // Forney syndromes Ξ = S·Γ mod x^{2t}; entries ρ.. follow the
        // error-only LFSR.
        let xi = poly::mod_xk(&poly::mul(&synd, &gamma), two_t);
        let rho = erasures.len();
        let window: Vec<u8> = (rho..two_t)
            .map(|j| xi.get(j).copied().unwrap_or(0))
            .collect();

        let sigma = berlekamp_massey(&window);
        let nu = poly::degree(&sigma).unwrap_or(0);
        if 2 * nu > two_t - rho {
            return Err(MdsError::DecodeFailure);
        }

        // Chien search: error positions are i with σ(α⁻ⁱ) = 0.
        let mut errata: BTreeSet<usize> = erasures.iter().copied().collect();
        let mut error_roots = 0usize;
        for i in 0..self.n {
            if poly::eval(&sigma, gf256::alpha_pow(-(i as i64))) == 0 {
                error_roots += 1;
                if !errata.insert(i) {
                    // An "error" at an erased position signals a bogus σ.
                    return Err(MdsError::DecodeFailure);
                }
            }
        }
        if error_roots != nu {
            // σ does not split over the locator set → miscorrection.
            return Err(MdsError::DecodeFailure);
        }

        // Errata locator over all positions and its evaluator.
        let lambda = poly::mul(&gamma, &sigma);
        let omega = poly::mod_xk(&poly::mul(&synd, &lambda), two_t);
        let lambda_der = poly::derivative(&lambda);

        for i in &errata {
            let x = gf256::alpha_pow(*i as i64);
            let x_inv = gf256::alpha_pow(-(*i as i64));
            let denom = poly::eval(&lambda_der, x_inv);
            if denom == 0 {
                return Err(MdsError::DecodeFailure);
            }
            let magnitude = gf256::mul(x, gf256::div(poly::eval(&omega, x_inv), denom));
            word[*i] ^= magnitude;
        }

        if self.syndromes(&word).iter().any(|s| *s != 0) {
            return Err(MdsError::DecodeFailure);
        }
        Ok(word)
    }
}

/// Berlekamp–Massey over GF(2⁸): shortest LFSR (connection polynomial,
/// ascending, σ(0) = 1) generating `seq`.
fn berlekamp_massey(seq: &[u8]) -> Vec<u8> {
    let mut c = vec![1u8]; // current connection polynomial
    let mut b = vec![1u8]; // copy from before the last length change
    let mut l = 0usize; // current LFSR length
    let mut m = 1usize; // steps since last length change
    let mut bb = 1u8; // discrepancy at last length change
    for i in 0..seq.len() {
        let mut d = seq[i];
        for j in 1..c.len() {
            if j <= i {
                d ^= gf256::mul(c[j], seq[i - j]);
            }
        }
        if d == 0 {
            m += 1;
        } else if 2 * l <= i {
            let prev = c.clone();
            c = poly::add(&c, &poly::scale(&poly::shift(&b, m), gf256::div(d, bb)));
            l = i + 1 - l;
            b = prev;
            bb = d;
            m = 1;
        } else {
            c = poly::add(&c, &poly::scale(&poly::shift(&b, m), gf256::div(d, bb)));
            m += 1;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_message(k: usize, seed: u8) -> Vec<u8> {
        (0..k)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn new_rejects_bad_parameters() {
        assert!(matches!(
            ReedSolomon::new(10, 0),
            Err(MdsError::BadParameters { .. })
        ));
        assert!(matches!(
            ReedSolomon::new(4, 5),
            Err(MdsError::BadParameters { .. })
        ));
        assert!(matches!(
            ReedSolomon::new(256, 10),
            Err(MdsError::BadParameters { .. })
        ));
        assert!(ReedSolomon::new(255, 1).is_ok());
    }

    #[test]
    fn encode_is_systematic_and_valid() {
        let code = ReedSolomon::new(12, 5).unwrap();
        let msg = sample_message(5, 7);
        let cw = code.encode(&msg);
        assert_eq!(cw.len(), 12);
        assert_eq!(code.message_of(&cw), &msg[..]);
        assert!(code.is_codeword(&cw));
    }

    #[test]
    fn clean_word_decodes_unchanged() {
        let code = ReedSolomon::new(9, 3).unwrap();
        let cw = code.encode(&sample_message(3, 1));
        let rx: Vec<Option<u8>> = cw.iter().copied().map(Some).collect();
        assert_eq!(code.decode(&rx).unwrap(), cw);
    }

    #[test]
    fn corrects_max_erasures() {
        let code = ReedSolomon::new(10, 4).unwrap();
        let cw = code.encode(&sample_message(4, 3));
        let mut rx: Vec<Option<u8>> = cw.iter().copied().map(Some).collect();
        for i in [0, 2, 4, 6, 8, 9] {
            rx[i] = None; // exactly n - k = 6 erasures
        }
        assert_eq!(code.decode(&rx).unwrap(), cw);
        rx[1] = None; // one more than the budget
        assert!(matches!(
            code.decode(&rx),
            Err(MdsError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn corrects_max_errors() {
        let code = ReedSolomon::new(10, 4).unwrap();
        let cw = code.encode(&sample_message(4, 9));
        let mut rx: Vec<Option<u8>> = cw.iter().copied().map(Some).collect();
        for i in [1, 4, 7] {
            // t = 3 errors
            rx[i] = Some(cw[i] ^ 0x5A);
        }
        assert_eq!(code.decode(&rx).unwrap(), cw);
    }

    #[test]
    fn corrects_mixed_errors_and_erasures_at_the_boundary() {
        // 2ν + ρ = n − k exactly: ν = 2, ρ = 2 with n − k = 6.
        let code = ReedSolomon::new(10, 4).unwrap();
        let cw = code.encode(&sample_message(4, 17));
        let mut rx: Vec<Option<u8>> = cw.iter().copied().map(Some).collect();
        rx[0] = None;
        rx[9] = None;
        rx[3] = Some(cw[3] ^ 1);
        rx[6] = Some(cw[6] ^ 0xFF);
        assert_eq!(code.decode(&rx).unwrap(), cw);
    }

    #[test]
    fn bcsr_worst_case_pattern() {
        // The paper's worst case at n = 5f+1, f = 1: k = 1, one missing
        // server (erasure) and up to 2f = 2 erroneous elements.
        let code = ReedSolomon::new(6, 1).unwrap();
        let cw = code.encode(&[0xAB]);
        let stale = code.encode(&[0x11]);
        let mut rx: Vec<Option<u8>> = cw.iter().copied().map(Some).collect();
        rx[5] = None; // f = 1 slow server
        rx[0] = Some(stale[0]); // stale element
        rx[1] = Some(stale[1]); // stale element (e = 2f = 2)
        let fixed = code.decode(&rx).unwrap();
        assert_eq!(code.message_of(&fixed), &[0xAB]);
    }

    #[test]
    fn overload_is_detected_not_miscorrected() {
        let code = ReedSolomon::new(8, 4).unwrap(); // corrects up to 2 errors
        let cw = code.encode(&sample_message(4, 23));
        let other = code.encode(&sample_message(4, 99));
        // Replace 3 symbols with another codeword's — beyond capability.
        let mut rx: Vec<Option<u8>> = cw.iter().copied().map(Some).collect();
        for i in 0..3 {
            rx[i] = Some(other[i]);
        }
        match code.decode(&rx) {
            Err(MdsError::DecodeFailure) => {}
            Ok(out) => {
                // Decoding to *some* codeword is permitted only if it is a
                // real codeword (bounded-distance decoders may land on a
                // neighbour when overloaded) — never garbage.
                assert!(code.is_codeword(&out));
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn degenerate_k_equals_n() {
        let code = ReedSolomon::new(4, 4).unwrap();
        let msg = sample_message(4, 2);
        let cw = code.encode(&msg);
        assert_eq!(cw, msg);
        let rx: Vec<Option<u8>> = cw.iter().copied().map(Some).collect();
        assert_eq!(code.decode(&rx).unwrap(), msg);
    }

    #[test]
    fn wrong_length_is_rejected() {
        let code = ReedSolomon::new(6, 2).unwrap();
        assert!(matches!(
            code.decode(&[Some(1); 5]),
            Err(MdsError::LengthMismatch {
                expected: 6,
                got: 5
            })
        ));
    }

    #[test]
    fn any_k_subset_reconstructs_mds_property() {
        // MDS: any k surviving symbols determine the codeword when the other
        // n − k are erased.
        let code = ReedSolomon::new(7, 3).unwrap();
        let msg = sample_message(3, 5);
        let cw = code.encode(&msg);
        // All (7 choose 3) = 35 survivor subsets.
        for a in 0..7 {
            for b in (a + 1)..7 {
                for c in (b + 1)..7 {
                    let mut rx: Vec<Option<u8>> = vec![None; 7];
                    for i in [a, b, c] {
                        rx[i] = Some(cw[i]);
                    }
                    let fixed = code.decode(&rx).unwrap();
                    assert_eq!(code.message_of(&fixed), &msg[..], "subset {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn decoding_matrix_inverts_any_k_rows() {
        let code = ReedSolomon::new(7, 3).unwrap();
        for a in 0..7 {
            for b in (a + 1)..7 {
                for c in (b + 1)..7 {
                    let inv = code.decoding_matrix(&[a, b, c]);
                    // inv · [row a; row b; row c] = I.
                    for i in 0..3 {
                        for j in 0..3 {
                            let mut dot = 0u8;
                            for (r, pos) in [a, b, c].into_iter().enumerate() {
                                dot ^= gf256::mul(inv[i * 3 + r], code.row(pos)[j]);
                            }
                            assert_eq!(dot, u8::from(i == j), "rows {a},{b},{c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn berlekamp_massey_finds_short_lfsr() {
        // Sequence generated by s_{i+1} = 3·s_i → connection 1 + 3x.
        let mut seq = vec![5u8];
        for _ in 0..7 {
            let last = *seq.last().unwrap();
            seq.push(gf256::mul(3, last));
        }
        let c = berlekamp_massey(&seq);
        assert_eq!(c, vec![1, 3]);
    }
}
