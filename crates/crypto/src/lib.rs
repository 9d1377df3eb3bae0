//! Channel authentication for `safereg`.
//!
//! The paper's model (§II-A) assumes "the communication channels connecting
//! servers and clients provide message authentication using digital
//! signatures", whose only protocol-relevant effect is that a Byzantine
//! server cannot forge messages *from another process*. Pairwise message
//! authentication codes provide exactly that property for point-to-point
//! channels, so this crate implements — from scratch, with no external
//! crypto dependency —
//!
//! * [`sha256`]: FIPS 180-4 SHA-256, on the x86_64 SHA extensions when the
//!   CPU has them and portable scalar rounds otherwise,
//! * [`hmac`]: RFC 2104 HMAC-SHA-256,
//! * [`keychain`]: pairwise key derivation for all processes in a system,
//!   and the per-link [`KeyRing`] of keyed HMAC states derived from it once,
//! * [`auth`]: MAC-framed messages used by the TCP transport.
//!
//! DESIGN.md records this substitution (signatures → pairwise MACs) and why
//! it preserves the paper's behaviour.
//!
//! # Examples
//!
//! ```
//! use safereg_crypto::{keychain::KeyChain, auth::AuthCodec};
//! use safereg_common::ids::{NodeId, ServerId, ReaderId};
//!
//! let chain = KeyChain::from_master_seed(b"cluster secret");
//! let reader: NodeId = ReaderId(0).into();
//! let server: NodeId = ServerId(3).into();
//!
//! let tx = AuthCodec::new(chain.pair_key(reader, server));
//! let framed = tx.seal(b"QUERY-DATA");
//! let rx = AuthCodec::new(chain.pair_key(server, reader)); // same pair key
//! assert_eq!(rx.open(&framed).unwrap(), b"QUERY-DATA");
//! ```

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod auth;
pub mod chain;
pub mod hmac;
pub mod keychain;
pub mod sha256;

pub use auth::{AuthCodec, AuthError};
pub use chain::{ChainLink, LinkKind, ResponseChain};
pub use hmac::HmacSha256;
pub use keychain::{Key, KeyChain, KeyRing};
pub use sha256::Sha256;
