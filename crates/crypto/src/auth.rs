//! Authenticated message frames.
//!
//! [`AuthCodec`] seals a payload as `payload || HMAC(key, payload)` and
//! opens only frames whose MAC verifies: a flat MAC over the whole payload,
//! for callers that authenticate opaque byte strings. The TCP transport's
//! frames MAC `head || SHA-256(tail)` instead, over a
//! [`KeyRing`](crate::keychain::KeyRing) (`safereg_transport::frame`).

use safereg_common::buf::Bytes;

use crate::hmac::HmacSha256;
use crate::keychain::Key;
use crate::sha256::DIGEST_LEN;

/// Error returned when opening a frame fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// The frame was shorter than a MAC.
    TooShort {
        /// Observed frame length.
        len: usize,
    },
    /// The MAC did not verify — the frame was forged or corrupted.
    BadMac,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::TooShort { len } => {
                write!(f, "frame of {len} bytes is shorter than a MAC")
            }
            AuthError::BadMac => write!(f, "message authentication code mismatch"),
        }
    }
}

impl std::error::Error for AuthError {}

/// Seals and opens MAC-authenticated frames under one link key, keyed
/// once at construction.
///
/// # Examples
///
/// ```
/// use safereg_crypto::{auth::AuthCodec, keychain::KeyChain};
/// use safereg_common::ids::{NodeId, ServerId, WriterId};
///
/// let chain = KeyChain::from_master_seed(b"seed");
/// let key = chain.pair_key(NodeId::from(ServerId(0)), NodeId::from(WriterId(0)));
/// let codec = AuthCodec::new(key);
///
/// let frame = codec.seal(b"PUT-DATA");
/// assert_eq!(codec.open(&frame)?, b"PUT-DATA");
/// # Ok::<(), safereg_crypto::auth::AuthError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AuthCodec {
    keyed: HmacSha256,
}

impl AuthCodec {
    /// Creates a codec for one link key.
    pub fn new(key: Key) -> Self {
        AuthCodec {
            keyed: HmacSha256::new(key.as_bytes()),
        }
    }

    /// Appends the payload's MAC, producing an authenticated frame.
    pub fn seal(&self, payload: &[u8]) -> Vec<u8> {
        let mac = self.mac_of_parts(&[payload]);
        let mut frame = Vec::with_capacity(payload.len() + DIGEST_LEN);
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&mac);
        frame
    }

    /// MACs a payload given as discontiguous parts, without concatenating
    /// them first.
    ///
    /// The MAC is over the parts' logical concatenation, so
    /// `mac_of_parts(&[a, b])` equals the MAC `seal` would embed for
    /// `a ++ b`. This is what lets the transport seal an envelope whose
    /// encoding is split into a serialized head and a zero-copy payload
    /// tail without ever materializing the joined buffer.
    pub fn mac_of_parts(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = self.keyed.clone();
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    /// Verifies a frame and returns its payload.
    ///
    /// # Errors
    ///
    /// [`AuthError::TooShort`] when the frame cannot contain a MAC;
    /// [`AuthError::BadMac`] when verification fails (forgery, corruption,
    /// or a frame sealed under a different link key).
    pub fn open<'a>(&self, frame: &'a [u8]) -> Result<&'a [u8], AuthError> {
        if frame.len() < DIGEST_LEN {
            return Err(AuthError::TooShort { len: frame.len() });
        }
        let (payload, mac) = frame.split_at(frame.len() - DIGEST_LEN);
        let mut h = self.keyed.clone();
        h.update(payload);
        if h.finalize_matches(mac) {
            Ok(payload)
        } else {
            Err(AuthError::BadMac)
        }
    }

    /// Verifies a [`Bytes`] frame and returns its payload as an O(1) slice
    /// of the same buffer — no copy is made.
    ///
    /// # Errors
    ///
    /// Same as [`AuthCodec::open`].
    pub fn open_bytes(&self, frame: &Bytes) -> Result<Bytes, AuthError> {
        let payload = self.open(frame.as_ref())?;
        Ok(frame.slice(..payload.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keychain::KeyChain;
    use safereg_common::ids::{NodeId, ServerId, WriterId};

    fn codec_for(seed: &[u8]) -> AuthCodec {
        let chain = KeyChain::from_master_seed(seed);
        AuthCodec::new(chain.pair_key(NodeId::from(ServerId(0)), NodeId::from(WriterId(0))))
    }

    #[test]
    fn seal_open_roundtrip() {
        let codec = codec_for(b"seed");
        for payload in [&b""[..], b"x", &[0u8; 1000][..]] {
            let frame = codec.seal(payload);
            assert_eq!(codec.open(&frame).unwrap(), payload);
        }
    }

    #[test]
    fn tampered_payload_is_rejected() {
        let codec = codec_for(b"seed");
        let mut frame = codec.seal(b"value=1");
        frame[0] ^= 0xFF;
        assert_eq!(codec.open(&frame), Err(AuthError::BadMac));
    }

    #[test]
    fn tampered_mac_is_rejected() {
        let codec = codec_for(b"seed");
        let mut frame = codec.seal(b"value=1");
        let end = frame.len() - 1;
        frame[end] ^= 0x01;
        assert_eq!(codec.open(&frame), Err(AuthError::BadMac));
    }

    #[test]
    fn wrong_key_is_rejected() {
        let a = codec_for(b"seed-a");
        let b = codec_for(b"seed-b");
        let frame = a.seal(b"hello");
        assert_eq!(b.open(&frame), Err(AuthError::BadMac));
    }

    #[test]
    fn short_frame_is_rejected() {
        let codec = codec_for(b"seed");
        assert_eq!(codec.open(&[0u8; 5]), Err(AuthError::TooShort { len: 5 }));
    }

    #[test]
    fn mac_of_parts_matches_contiguous_seal() {
        let codec = codec_for(b"seed");
        let frame = codec.seal(b"head-bytes|tail-bytes");
        let mac = codec.mac_of_parts(&[b"head-bytes|", b"tail-bytes"]);
        assert_eq!(&frame[frame.len() - DIGEST_LEN..], &mac);
        // Degenerate splits agree too.
        assert_eq!(
            codec.mac_of_parts(&[b"", b"head-bytes|tail-bytes", b""]),
            mac
        );
    }

    #[test]
    fn open_bytes_returns_a_zero_copy_slice() {
        let codec = codec_for(b"seed");
        let frame = Bytes::from(codec.seal(b"zero-copy payload"));
        let payload = codec.open_bytes(&frame).unwrap();
        assert_eq!(payload.as_ref(), b"zero-copy payload");
        // The payload aliases the frame's allocation.
        assert_eq!(payload.as_ref().as_ptr(), frame.as_ref().as_ptr());

        let mut tampered = frame.as_ref().to_vec();
        tampered[0] ^= 0xFF;
        assert_eq!(
            codec.open_bytes(&Bytes::from(tampered)),
            Err(AuthError::BadMac)
        );
    }

    #[test]
    fn byzantine_server_cannot_forge_other_links() {
        // s1 is Byzantine and knows every key it is an endpoint of, but not
        // the s0<->w0 link key; anything it fabricates for that link fails.
        let chain = KeyChain::from_master_seed(b"cluster");
        let s0w0 =
            AuthCodec::new(chain.pair_key(NodeId::from(ServerId(0)), NodeId::from(WriterId(0))));
        let s1w0 =
            AuthCodec::new(chain.pair_key(NodeId::from(ServerId(1)), NodeId::from(WriterId(0))));
        let forged = s1w0.seal(b"fake ack from s0");
        assert_eq!(s0w0.open(&forged), Err(AuthError::BadMac));
    }
}
