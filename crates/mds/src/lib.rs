//! `[n, k]` MDS erasure coding for BCSR (§IV-A of the paper).
//!
//! The paper stores one coded element per server and requires a decoder that
//! recovers the value from `n − f` coded elements of which up to `e` are
//! *erroneous* (stale or Byzantine-corrupted), with `k = n − f − 2e`. That is
//! exactly the error-and-erasure capability of a Reed–Solomon code:
//! `2·errors + erasures ≤ n − k`. This crate implements, from scratch:
//!
//! * [`gf256`] — arithmetic in GF(2⁸) with compile-time tables, and the
//!   multiply-accumulate over whole slices that every parity pass and
//!   decode solve runs: an AVX2 split-nibble shuffle kernel on x86_64 CPUs
//!   that report AVX2 (picked at runtime; `std::arch`, no dependency), a
//!   product-table lookup per byte everywhere else and for the tail,
//! * [`poly`] — polynomial helpers over the field,
//! * [`rs`] — a systematic Reed–Solomon code held as its generator rows,
//!   with a symbol decoder that corrects both erasures (positions known)
//!   and errors (positions unknown) via Forney syndromes, Berlekamp–Massey,
//!   Chien search and Forney's formula,
//! * [`stripe`] — a value cut into `k` contiguous chunks and coded a whole
//!   per-server [`safereg_common::msg::CodedElement`] at a time; decoding
//!   solves from `k` elements, verifies the rest against the re-encoded
//!   codeword, and locates a Byzantine element once with the symbol
//!   decoder instead of decoding every column.
//!
//! # Examples
//!
//! ```
//! use safereg_mds::rs::ReedSolomon;
//!
//! // [6, 1] code as used by BCSR at n = 5f+1 = 6, f = 1 (k = n - 5f = 1).
//! let code = ReedSolomon::new(6, 1)?;
//! let codeword = code.encode(&[42]);
//!
//! // Reader view: one server missing (erasure), two stale (errors).
//! let mut received: Vec<Option<u8>> = codeword.iter().copied().map(Some).collect();
//! received[0] = None;          // crashed / slow server
//! received[1] = Some(7);       // Byzantine garbage
//! received[2] = Some(13);      // stale element
//! let decoded = code.decode(&received)?;
//! assert_eq!(code.message_of(&decoded), &[42]);
//! # Ok::<(), safereg_mds::MdsError>(())
//! ```

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod gf256;
pub mod poly;
pub mod rs;
pub mod stripe;

pub use rs::{MdsError, ReedSolomon};
pub use stripe::{decode_elements, encode_value, ElementView};
