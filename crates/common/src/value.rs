//! Register values.
//!
//! The paper's value domain `V` is opaque; we model a value as an immutable
//! byte string. [`Value`] wraps [`crate::buf::Bytes`] so cloning a value
//! (which replication does `n` times per write) is a cheap reference-count
//! bump. The distinguished initial value `v_0` is the empty byte string.

use std::fmt;

use crate::buf::Bytes;
use crate::codec::{BytesReader, Wire, WireError};

/// An immutable register value (an element of the paper's domain `V`).
///
/// # Examples
///
/// ```
/// use safereg_common::value::Value;
///
/// let v = Value::from("hello");
/// assert_eq!(v.len(), 5);
/// assert!(Value::initial().is_initial());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(Bytes);

impl Value {
    /// The register's distinguished default value `v_0` (§II-B).
    pub fn initial() -> Self {
        Value(Bytes::new())
    }

    /// Creates a value from raw bytes.
    pub fn new(bytes: impl Into<Bytes>) -> Self {
        Value(bytes.into())
    }

    /// Borrows the underlying bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Borrows the underlying [`Bytes`] buffer, so callers can take O(1)
    /// clones/slices of the value's allocation (the encode-once wire path
    /// does this to avoid re-copying payloads).
    pub fn bytes(&self) -> &Bytes {
        &self.0
    }

    /// Extracts the underlying [`Bytes`].
    pub fn into_inner(self) -> Bytes {
        self.0
    }

    /// Length of the value in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when the value is the initial value `v_0`.
    ///
    /// The initial value is the empty byte string, so this is equivalent to
    /// emptiness.
    pub fn is_initial(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns `true` when the value holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value(Bytes::from(v))
    }
}

impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Value(Bytes::copy_from_slice(v))
    }
}

impl From<Bytes> for Value {
    fn from(b: Bytes) -> Self {
        Value(b)
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for Value {
    /// Shows printable ASCII directly and falls back to hex, truncated to
    /// keep traces readable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_initial() {
            return write!(f, "v0");
        }
        const LIMIT: usize = 16;
        let shown = &self.0[..self.0.len().min(LIMIT)];
        if shown.iter().all(|b| b.is_ascii_graphic() || *b == b' ') {
            write!(f, "\"{}\"", String::from_utf8_lossy(shown))?;
        } else {
            write!(f, "0x")?;
            for b in shown {
                write!(f, "{b:02x}")?;
            }
        }
        if self.0.len() > LIMIT {
            write!(f, "..({}B)", self.0.len())?;
        }
        Ok(())
    }
}

impl Wire for Value {
    fn encode_to(&self, buf: &mut Vec<u8>) {
        self.0.encode_to(buf);
    }

    fn decode_borrowed(r: &mut BytesReader<'_>) -> Result<Self, WireError> {
        Ok(Value(Bytes::decode_borrowed(r)?))
    }

    fn wire_len(&self) -> usize {
        4 + self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_value_is_empty_and_default() {
        assert!(Value::initial().is_initial());
        assert_eq!(Value::default(), Value::initial());
        assert_eq!(Value::initial().len(), 0);
    }

    #[test]
    fn conversions_preserve_bytes() {
        let v = Value::from("abc");
        assert_eq!(v.as_bytes(), b"abc");
        assert_eq!(Value::from(vec![1, 2, 3]).as_ref(), &[1, 2, 3]);
        assert_eq!(Value::from(&b"xy"[..]).len(), 2);
    }

    #[test]
    fn clone_is_shallow() {
        let v = Value::from(vec![0u8; 1024]);
        let w = v.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(v.as_bytes().as_ptr(), w.as_bytes().as_ptr());
    }

    #[test]
    fn display_handles_ascii_hex_and_truncation() {
        assert_eq!(Value::initial().to_string(), "v0");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
        assert_eq!(Value::from(vec![0xAB, 0x00]).to_string(), "0xab00");
        let long = Value::from(vec![b'a'; 20]);
        assert!(long.to_string().ends_with("..(20B)"));
    }

    #[test]
    fn wire_roundtrip() {
        let v = Value::from("roundtrip");
        assert_eq!(Value::from_bytes(&v.to_bytes()).unwrap(), v);
        assert_eq!(v.wire_len(), 4 + 9);
    }
}
