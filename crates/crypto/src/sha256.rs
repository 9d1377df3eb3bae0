//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Streaming interface: [`Sha256::update`] may be called any number of times
//! before [`Sha256::finalize`]. Verified against the NIST example vectors
//! ("abc", the two-block message, the million-`a` message) in the tests.
//!
//! Two compression kernels sit behind one dispatch, chosen once per hasher
//! at runtime: on x86_64 CPUs that report the SHA extensions, a
//! `sha256rnds2`/`sha256msg1`/`sha256msg2` kernel written with `std::arch`;
//! everywhere else, the portable scalar rounds. Both produce identical
//! digests, which the differential tests check directly on each kernel.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// SHA-256 of the empty string, `e3b0c442…b855`.
pub const EMPTY_DIGEST: [u8; DIGEST_LEN] = [
    0xe3, 0xb0, 0xc4, 0x42, 0x98, 0xfc, 0x1c, 0x14, 0x9a, 0xfb, 0xf4, 0xc8, 0x99, 0x6f, 0xb9, 0x24,
    0x27, 0xae, 0x41, 0xe4, 0x64, 0x9b, 0x93, 0x4c, 0xa4, 0x95, 0x99, 0x1b, 0x78, 0x52, 0xb8, 0x55,
];

/// SHA-256 round constants (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use safereg_crypto::sha256::Sha256;
///
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     Sha256::to_hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partial block awaiting more input.
    buf: [u8; 64],
    buf_len: usize,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the fastest kernel this CPU supports.
    pub fn new() -> Self {
        Sha256::with_kernel(Kernel::detect())
    }

    /// Creates a fresh hasher that compresses with `kernel`.
    pub(crate) fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
            kernel,
        }
    }

    /// The kernel this hasher compresses with.
    #[cfg(test)]
    pub(crate) fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            self.kernel
                .compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        // Every whole block goes to the kernel in one call, in place.
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            self.kernel.compress(&mut self.state, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Completes the hash, consuming the hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length. It spills
        // into a second block when the first has under 9 bytes free.
        let mut tail = [[0u8; 64]; 2];
        let blocks = if self.buf_len < 56 { 1 } else { 2 };
        let flat = tail.as_flattened_mut();
        flat[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        flat[self.buf_len] = 0x80;
        flat[blocks * 64 - 8..blocks * 64].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel.compress(&mut self.state, &tail[..blocks]);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Renders a digest as lowercase hex.
    pub fn to_hex(digest: &[u8; DIGEST_LEN]) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in digest {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

/// The compression function a hasher runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Portable FIPS 180-4 rounds; runs on every target.
    Scalar,
    /// x86_64 SHA extensions; the proof token exists only on CPUs that
    /// report them.
    #[cfg(target_arch = "x86_64")]
    ShaNi(shani::Cpu),
}

impl Kernel {
    /// The fastest kernel the running CPU supports. Feature detection is
    /// cached by std, so this costs a few loads.
    pub(crate) fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = shani::Cpu::detect() {
            return Kernel::ShaNi(cpu);
        }
        Kernel::Scalar
    }

    /// Folds `blocks`, in order, into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        match self {
            Kernel::Scalar => blocks.iter().for_each(|block| compress(state, block)),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(cpu) => cpu.compress(state, blocks),
        }
    }
}

/// The scalar compression function: one block into `state`.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (wi, word) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *wi = u32::from_be_bytes(*word);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The SHA-NI kernel: four rounds per `sha256rnds2` pair, the message
/// schedule in `sha256msg1`/`sha256msg2`, and the state held in two
/// registers (`ABEF`, `CDGH`) across every block of one call.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    use super::K;

    /// Proof that the running CPU has every feature [`rounds`] enables:
    /// the private field means only [`Cpu::detect`] can make one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Cpu(());

    impl Cpu {
        /// `Some` when the CPU reports SHA, SSE2 and SSSE3.
        pub(crate) fn detect() -> Option<Cpu> {
            let ok = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3");
            ok.then_some(Cpu(()))
        }

        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
            // SAFETY: `self` is a `Cpu`, which only `Cpu::detect` builds and
            // only after std reported sha, sse2 and ssse3 — every feature
            // `rounds` is compiled with.
            unsafe { rounds(state, blocks) }
        }
    }

    #[target_feature(enable = "sha,sse2,ssse3")]
    fn rounds(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Byte order of each 32-bit word: the message is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let [a, b, c, d, e, f, g, h] = state.map(|x| x as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let m = block.as_chunks::<16>().0;
            let mut w0 = _mm_shuffle_epi8(load(&m[0]), bswap);
            let mut w1 = _mm_shuffle_epi8(load(&m[1]), bswap);
            let mut w2 = _mm_shuffle_epi8(load(&m[2]), bswap);
            let mut w3 = _mm_shuffle_epi8(load(&m[3]), bswap);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Each pass extends the schedule by 16 words, reusing the four
            // registers in rotation, so no name ever changes role.
            for quad in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, quad);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, quad + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, quad + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, quad + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let [f, e, b, a] = store(abef);
        let [h, g, d, c] = store(cdgh);
        *state = [a, b, c, d, e, f, g, h];
    }

    /// Loads 16 message bytes.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `bytes` is 16 readable bytes, exactly one `__m128i`, and
        // `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// The four 32-bit lanes of `v`, lowest first.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn store(v: __m128i) -> [u32; 4] {
        let mut lanes = [0u32; 4];
        // SAFETY: `lanes` is 16 writable bytes, exactly one `__m128i`, and
        // `_mm_storeu_si128` has no alignment requirement.
        unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast(), v) };
        lanes
    }

    /// Rounds `4 * quad .. 4 * quad + 4` on message words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, quad: usize) {
        let k = &K[4 * quad..4 * quad + 4];
        let wk = _mm_add_epi32(
            w,
            _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
        );
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// The next four schedule words from the previous sixteen, oldest in
    /// `w0`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use safereg_common::rng::DetRng;

    /// Every kernel this host can run, named directly rather than through
    /// dispatch: the scalar one always, SHA-NI when the CPU has it.
    pub(crate) fn kernels() -> Vec<Kernel> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut kernels = vec![Kernel::Scalar];
        #[cfg(target_arch = "x86_64")]
        match shani::Cpu::detect() {
            Some(cpu) => kernels.push(Kernel::ShaNi(cpu)),
            None => eprintln!("CPU lacks the SHA extensions: hardware kernel skipped"),
        }
        kernels
    }

    fn digest_on(kernel: Kernel, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::with_kernel(kernel);
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    fn hex_on(kernel: Kernel, data: &[u8]) -> String {
        Sha256::to_hex(&digest_on(kernel, &[data]))
    }

    #[test]
    fn nist_vector_empty() {
        for kernel in kernels() {
            assert_eq!(
                hex_on(kernel, b""),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn nist_vector_abc() {
        for kernel in kernels() {
            assert_eq!(
                hex_on(kernel, b"abc"),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn nist_vector_two_blocks() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        for kernel in kernels() {
            assert_eq!(
                hex_on(kernel, msg),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn nist_vector_million_a() {
        let chunk = [b'a'; 1000];
        for kernel in kernels() {
            let mut h = Sha256::with_kernel(kernel);
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                Sha256::to_hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_all_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let expect = Sha256::digest(&data);
        for kernel in kernels() {
            for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
                let (a, b) = data.split_at(split);
                assert_eq!(
                    digest_on(kernel, &[a, b]),
                    expect,
                    "{kernel:?} split at {split}"
                );
            }
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Known-good values computed with coreutils sha256sum.
        let cases: [(usize, &str); 3] = [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
        ];
        for kernel in kernels() {
            for (len, hex) in cases {
                let msg = vec![b'a'; len];
                assert_eq!(hex_on(kernel, &msg), hex, "{kernel:?} len {len}");
            }
        }
    }

    #[test]
    fn kernels_agree_on_every_length_split_at_random_points() {
        let mut rng = DetRng::seed_from(7);
        let mut data = vec![0u8; 1100];
        rng.fill_bytes(&mut data);
        for len in 0..=data.len() {
            let msg = &data[..len];
            let expect = digest_on(Kernel::Scalar, &[msg]);
            for kernel in kernels() {
                let (a, b) = (rng.index(len + 1), rng.index(len + 1));
                let (lo, hi) = (a.min(b), a.max(b));
                let parts = [&msg[..lo], &msg[lo..hi], &msg[hi..]];
                assert_eq!(
                    digest_on(kernel, &parts),
                    expect,
                    "{kernel:?} len {len} split at {lo}, {hi}"
                );
            }
        }
    }

    #[test]
    fn kernels_match_reference_digests_around_64_kib() {
        // Reference digests of `i % 251` byte patterns from Python's
        // hashlib, so neither kernel is its own oracle.
        let cases = [
            (
                65535,
                "dda402a2c028f0cbbdbc5c6ebae965eed9c75f71236e7022b0386d3455d5ae2f",
            ),
            (
                65536,
                "4b640d85ab3ba30fd02c9fc9db4a8928f416322ad27022ea58a65aaee68a4df2",
            ),
            (
                65537,
                "237356e18b503616912abb8ffaed3a72591e397d4ac294c4637917d48a3f529d",
            ),
        ];
        for kernel in kernels() {
            for (len, hex) in cases {
                let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                assert_eq!(hex_on(kernel, &msg), hex, "{kernel:?} len {len}");
                // Misaligned: one buffered byte, then whole blocks.
                let (a, b) = msg.split_at(1);
                assert_eq!(
                    Sha256::to_hex(&digest_on(kernel, &[a, b])),
                    hex,
                    "{kernel:?} len {len} split at 1"
                );
            }
        }
    }

    /// A host that reports SHA but hashes on the scalar kernel would pass
    /// every vector test while losing the speed-up; this one fails.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dispatch_picks_sha_ni_whenever_the_cpu_reports_sha() {
        let picked = Sha256::new().kernel();
        if is_x86_feature_detected!("sha") {
            assert!(matches!(picked, Kernel::ShaNi(_)), "picked {picked:?}");
        } else {
            assert_eq!(picked, Kernel::Scalar);
        }
    }

    #[test]
    fn empty_digest_is_the_digest_of_nothing() {
        assert_eq!(Sha256::digest(b""), EMPTY_DIGEST);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"a"), Sha256::digest(b"b"));
        assert_ne!(Sha256::digest(b"ab"), Sha256::digest(b"ba"));
    }
}
