//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1), built on [`crate::sha256`].
//!
//! Verified against RFC 4231 test vectors in the tests.

use crate::sha256::{Kernel, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// Streaming HMAC-SHA-256. A keyed instance holds the inner and outer
/// hashes after their pad blocks, so a clone reuses the keying and
/// [`finalize`](Self::finalize) costs one compression past the message.
///
/// # Examples
///
/// ```
/// use safereg_crypto::hmac::HmacSha256;
///
/// let mac = HmacSha256::mac(b"key", b"message");
/// assert!(HmacSha256::verify(b"key", b"message", &mac));
/// assert!(!HmacSha256::verify(b"key", b"tampered", &mac));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    /// Redacted: a keyed state forges as well as its key.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HmacSha256(<redacted>)")
    }
}

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key` (any length; keys longer
    /// than one block are hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        HmacSha256::with_kernel(key, Kernel::detect())
    }

    /// [`HmacSha256::new`], with every hash on `kernel`.
    pub(crate) fn with_kernel(key: &[u8], kernel: Kernel) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = Sha256::with_kernel(kernel);
            h.update(key);
            k[..DIGEST_LEN].copy_from_slice(&h.finalize());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::with_kernel(kernel);
        inner.update(&ipad);
        let mut outer = Sha256::with_kernel(kernel);
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = HmacSha256::new(key);
        h.update(data);
        h.finalize()
    }

    /// Constant-time verification of a MAC.
    ///
    /// Comparison is branch-free over all 32 bytes so a forger learns
    /// nothing from timing.
    pub fn verify(key: &[u8], data: &[u8], mac: &[u8]) -> bool {
        let mut h = HmacSha256::new(key);
        h.update(data);
        h.finalize_matches(mac)
    }

    /// Completes the MAC and compares it with `mac` in constant time.
    pub fn finalize_matches(self, mac: &[u8]) -> bool {
        let expect = self.finalize();
        if mac.len() != DIGEST_LEN {
            return false;
        }
        let mut diff = 0u8;
        for (a, b) in expect.iter().zip(mac) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::tests::kernels;

    /// Checks an RFC 4231 vector on each kernel directly, and through
    /// dispatch.
    fn assert_mac(key: &[u8], data: &[u8], expect: &str) {
        for kernel in kernels() {
            let mut h = HmacSha256::with_kernel(key, kernel);
            h.update(data);
            assert_eq!(Sha256::to_hex(&h.finalize()), expect, "{kernel:?}");
        }
        assert_eq!(Sha256::to_hex(&HmacSha256::mac(key, data)), expect);
    }

    #[test]
    fn rfc4231_case_1() {
        assert_mac(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2_short_key() {
        assert_mac(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3_repeated_bytes() {
        assert_mac(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        assert_mac(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = HmacSha256::new(b"k");
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(h.finalize(), HmacSha256::mac(b"k", b"part one part two"));
    }

    #[test]
    fn verify_rejects_wrong_length_and_tamper() {
        let mac = HmacSha256::mac(b"k", b"m");
        assert!(HmacSha256::verify(b"k", b"m", &mac));
        assert!(!HmacSha256::verify(b"k", b"m", &mac[..31]));
        assert!(!HmacSha256::verify(b"other", b"m", &mac));
        let mut bad = mac;
        bad[0] ^= 1;
        assert!(!HmacSha256::verify(b"k", b"m", &bad));
    }
}
