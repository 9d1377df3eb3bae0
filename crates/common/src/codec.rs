//! Deterministic binary wire codec.
//!
//! The workspace serializes messages with its own small codec instead of a
//! serde format so that (a) the TCP transport and the bandwidth-accounting
//! experiments (E4) agree byte-for-byte on message sizes, and (b) decoding is
//! hardened against malformed input from Byzantine peers: every length is
//! bounds-checked against the remaining buffer before allocation.
//!
//! Encoding rules: fixed-width little-endian integers, `u32` lengths for
//! variable-size payloads, one-byte discriminants for enums. The format has
//! no self-description; both sides must agree on the expected type, which the
//! transport guarantees by framing each [`Wire`] message with its type.
//!
//! There is one decoder, [`Wire::decode_borrowed`] over a [`BytesReader`].
//! Every framed message arrives as a [`Bytes`] buffer, so `Bytes` fields
//! decode as O(1) slices of that buffer and a relayed payload is never
//! copied; fixed-size fields are read straight out of it.
//!
//! # Examples
//!
//! ```
//! use safereg_common::codec::Wire;
//!
//! let xs: Vec<u16> = vec![1, 2, 3];
//! let buf = xs.to_bytes();
//! let back = Vec::<u16>::from_bytes(&buf)?;
//! assert_eq!(back, xs);
//! # Ok::<(), safereg_common::codec::WireError>(())
//! ```

use std::error::Error;
use std::fmt;

use crate::buf::Bytes;

/// Payload bytes the decoder has copied out of its input: always 0.
///
/// The only decoder borrows every `Bytes` field from the input buffer, so
/// there is nothing left to count. The function stays because the
/// benchmark reads it as its `common.wire_bytes_copied_per_op` row.
pub fn payload_bytes_copied() -> u64 {
    0
}

/// Maximum length accepted for a single variable-size field (64 MiB).
///
/// A Byzantine peer can claim any length; this cap bounds the allocation a
/// forged header can trigger before the bounds check against the actual
/// buffer rejects it.
pub const MAX_FIELD_LEN: usize = 64 << 20;

/// Error produced when decoding malformed wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field was complete.
    Truncated {
        /// Bytes needed by the field being decoded.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// An enum discriminant byte had no corresponding variant.
    BadDiscriminant {
        /// Type being decoded.
        ty: &'static str,
        /// The offending discriminant value.
        got: u8,
    },
    /// A length prefix exceeded [`MAX_FIELD_LEN`].
    LengthOverflow {
        /// The claimed length.
        claimed: usize,
    },
    /// Trailing bytes remained after a complete decode.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {remaining} remaining"
                )
            }
            WireError::BadDiscriminant { ty, got } => {
                write!(f, "invalid discriminant {got} for {ty}")
            }
            WireError::LengthOverflow { claimed } => {
                write!(f, "length prefix {claimed} exceeds maximum field size")
            }
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after complete message")
            }
        }
    }
}

impl Error for WireError {}

/// Cursor over a [`Bytes`] buffer being decoded: variable-size fields come
/// back as zero-copy slices of the underlying buffer instead of fresh
/// allocations.
///
/// Every length prefix is checked against [`MAX_FIELD_LEN`] and the
/// remaining buffer before any slice is taken.
#[derive(Debug)]
pub struct BytesReader<'a> {
    src: &'a Bytes,
    pos: usize,
}

impl<'a> BytesReader<'a> {
    /// Creates a reader over `src` starting at offset 0.
    pub fn new(src: &'a Bytes) -> Self {
        BytesReader { src, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.src.len() - self.pos
    }

    /// Returns `true` once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes as a borrowed slice.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.src.as_slice()[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes the next `n` bytes as a zero-copy [`Bytes`] view sharing the
    /// source allocation.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<Bytes, WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let b = self.src.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(b)
    }

    /// Reads a `u32` length prefix, validating it against both
    /// [`MAX_FIELD_LEN`] and the remaining buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LengthOverflow`] for oversized claims and
    /// [`WireError::Truncated`] when the buffer cannot hold the claimed
    /// length.
    pub fn take_len(&mut self) -> Result<usize, WireError> {
        let len = u32::decode_borrowed(self)? as usize;
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOverflow { claimed: len });
        }
        if len > self.remaining() {
            return Err(WireError::Truncated {
                needed: len,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }
}

/// Types that can be serialized to and deserialized from the workspace wire
/// format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode_to(&self, buf: &mut Vec<u8>);

    /// Decodes a value from a [`BytesReader`], advancing it past exactly
    /// the bytes [`Wire::encode_to`] writes. `Bytes` fields come back as
    /// zero-copy views of the source buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first malformed field.
    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh immutable [`Bytes`] buffer.
    ///
    /// The buffer is built once and can then be cloned/sliced in O(1) for
    /// each destination — this is the encode-once entry point of the wire
    /// path.
    fn to_bytes(&self) -> Bytes {
        let mut buf = Vec::new();
        self.encode_to(&mut buf);
        Bytes::from(buf)
    }

    /// Decodes a value that must span the entire [`Bytes`] buffer, borrowing
    /// payload fields as zero-copy views.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingBytes`] when the buffer is longer than
    /// the encoding, in addition to any decode error.
    fn from_bytes(buf: &Bytes) -> Result<Self, WireError> {
        let mut r = BytesReader::new(buf);
        let v = Self::decode_borrowed(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::TrailingBytes {
                count: r.remaining(),
            });
        }
        Ok(v)
    }

    /// Number of bytes the encoding of `self` occupies.
    ///
    /// Used by the bandwidth-accounting experiments; the default encodes into
    /// a scratch buffer.
    fn wire_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode_to(&mut buf);
        buf.len()
    }
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode_to(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
                let n = std::mem::size_of::<$t>();
                let bytes = r.take(n)?;
                let mut arr = [0u8; std::mem::size_of::<$t>()];
                arr.copy_from_slice(bytes);
                Ok(<$t>::from_le_bytes(arr))
            }

            fn wire_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, i64);

impl Wire for bool {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        match u8::decode_borrowed(r)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadDiscriminant { ty: "bool", got: t }),
        }
    }

    fn wire_len(&self) -> usize {
        1
    }
}

impl Wire for Bytes {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode_to(buf);
        buf.extend_from_slice(self);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        // Zero-copy: the returned Bytes shares the source allocation.
        let len = r.take_len()?;
        r.take_bytes(len)
    }

    fn wire_len(&self) -> usize {
        4 + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode_to(buf);
        for item in self {
            item.encode_to(buf);
        }
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        let count = u32::decode_borrowed(r)? as usize;
        if count > MAX_FIELD_LEN {
            return Err(WireError::LengthOverflow { claimed: count });
        }
        // Each element consumes at least one byte; reject counts the buffer
        // can never satisfy before allocating.
        if count > r.remaining() {
            return Err(WireError::Truncated {
                needed: count,
                remaining: r.remaining(),
            });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(T::decode_borrowed(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode_to(buf);
            }
        }
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        match u8::decode_borrowed(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_borrowed(r)?)),
            t => Err(WireError::BadDiscriminant {
                ty: "Option",
                got: t,
            }),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.0.encode_to(buf);
        self.1.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_borrowed(r)?, B::decode_borrowed(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_roundtrip_little_endian() {
        let buf = 0xABCDu16.to_bytes();
        assert_eq!(buf.as_ref(), [0xCD, 0xAB]);
        assert_eq!(u16::from_bytes(&buf).unwrap(), 0xABCD);
    }

    #[test]
    fn vec_roundtrips_and_reports_wire_len() {
        let v: Vec<u32> = (0..10).collect();
        let buf = v.to_bytes();
        assert_eq!(buf.len(), 4 + 10 * 4);
        assert_eq!(v.wire_len(), buf.len());
        assert_eq!(Vec::<u32>::from_bytes(&buf).unwrap(), v);
    }

    #[test]
    fn truncated_input_is_detected() {
        let buf = 0xDEADBEEFu32.to_bytes();
        assert!(matches!(
            u64::from_bytes(&buf),
            Err(WireError::Truncated {
                needed: 8,
                remaining: 4
            })
        ));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut buf = 7u8.to_bytes().to_vec();
        buf.push(0);
        assert!(matches!(
            u8::from_bytes(&Bytes::from(buf)),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn forged_length_prefix_is_rejected_before_allocation() {
        // Claim a 4 GiB Bytes field backed by a 2-byte buffer.
        let buf = u32::MAX.to_bytes();
        assert!(matches!(
            Bytes::from_bytes(&buf),
            Err(WireError::LengthOverflow { .. })
        ));
        // Claim a count of elements larger than the buffer could hold.
        let mut vbuf = Vec::new();
        1_000_000u32.encode_to(&mut vbuf);
        assert!(matches!(
            Vec::<u8>::from_bytes(&Bytes::from(vbuf)),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn option_and_tuple_roundtrip() {
        let v: Option<(u16, Bytes)> = Some((3, Bytes::from_static(b"xyz")));
        let buf = v.to_bytes();
        let back = Option::<(u16, Bytes)>::from_bytes(&buf).unwrap();
        assert_eq!(back, v);
        assert_eq!(
            Option::<u8>::from_bytes(&Bytes::from_static(&[0])).unwrap(),
            None
        );
    }

    #[test]
    fn bytes_decode_is_zero_copy() {
        let payload = Bytes::from(vec![0x5Au8; 1024]);
        let framed = payload.to_bytes();
        // The decoded view aliases the framed buffer.
        let view = Bytes::from_bytes(&framed).unwrap();
        assert_eq!(view, payload);
        assert_eq!(view.as_ref().as_ptr(), framed.as_ref()[4..].as_ptr());
        assert_eq!(payload_bytes_copied(), 0);
    }

    #[test]
    fn reader_checks_lengths_before_slicing() {
        // Oversized length claim.
        let framed = u32::MAX.to_bytes();
        let mut r = BytesReader::new(&framed);
        assert!(matches!(
            r.take_len(),
            Err(WireError::LengthOverflow { .. })
        ));
        // Length beyond the remaining buffer.
        let mut short = Vec::new();
        9u32.encode_to(&mut short);
        short.extend_from_slice(b"abc");
        let short = Bytes::from(short);
        let mut r = BytesReader::new(&short);
        assert!(matches!(r.take_len(), Err(WireError::Truncated { .. })));
        // take_bytes past the end.
        let mut r = BytesReader::new(&short);
        assert!(matches!(
            r.take_bytes(100),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn encode_to_matches_to_bytes() {
        // A manual `encode_to` into a scratch Vec must produce exactly the
        // bytes `to_bytes` returns, and both must round-trip.
        let v: Vec<u32> = (0..10).collect();
        let mut manual = Vec::new();
        v.encode_to(&mut manual);
        assert_eq!(manual, v.to_bytes().to_vec());
        assert_eq!(
            Vec::<u32>::from_bytes(&Bytes::from(manual)).unwrap(),
            Vec::<u32>::from_bytes(&v.to_bytes()).unwrap()
        );
    }

    #[test]
    fn wire_error_display_is_informative() {
        let e = WireError::Truncated {
            needed: 8,
            remaining: 2,
        };
        assert!(e.to_string().contains("needed 8"));
        assert!(WireError::BadDiscriminant { ty: "bool", got: 7 }
            .to_string()
            .contains("bool"));
    }
}
