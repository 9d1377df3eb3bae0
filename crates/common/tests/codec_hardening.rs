//! Fuzz-style hardening of the wire codec: decoding attacker-controlled
//! bytes must never panic, never over-allocate, and always either produce
//! a value that re-encodes faithfully or return a structured error.
//!
//! Both decode paths are driven — the borrowing [`Wire::from_bytes`] the
//! transport uses and the copying [`Wire::decode_from`] — and must agree on
//! every input, success or failure.
//!
//! The suite drives the properties with the workspace's deterministic
//! [`DetRng`] (shrinking-free, reproducible from the printed seed).

use safereg_common::buf::Bytes;
use safereg_common::codec::{Wire, WireError, WireReader};
use safereg_common::ids::{ReaderId, WriterId};
use safereg_common::msg::{ClientToServer, Envelope, Message, OpId, Payload, ServerToClient};
use safereg_common::rng::DetRng;
use safereg_common::tag::Tag;
use safereg_common::value::Value;

/// The copying decode path, spelled out with the non-deprecated pieces.
fn copying_decode<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    let v = T::decode_from(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes {
            count: r.remaining(),
        });
    }
    Ok(v)
}

#[test]
fn arbitrary_bytes_never_panic_any_decoder() {
    let mut rng = DetRng::seed_from(0xC0DE_C0DE);
    for case in 0..2048u32 {
        let len = rng.index(256);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let data = Bytes::from(data);
        // Every decoder must be total over arbitrary input, on both paths.
        let _ = ClientToServer::from_bytes(&data);
        let _ = ServerToClient::from_bytes(&data);
        let _ = Envelope::from_bytes(&data);
        let _ = Tag::from_bytes(&data);
        let _ = Value::from_bytes(&data);
        let _ = copying_decode::<Envelope>(&data);

        // Round-trip stability: whatever decodes must encode back to the
        // same bytes (the format has a canonical encoding), and the two
        // decode paths must agree.
        let borrowed = Message::from_bytes(&data);
        let copied = copying_decode::<Message>(&data);
        assert_eq!(borrowed, copied, "case {case}: decode paths disagree");
        if let Ok(msg) = borrowed {
            assert_eq!(msg.to_bytes(), data, "case {case}");
        }
    }
}

#[test]
fn truncations_of_valid_messages_fail_cleanly() {
    let mut rng = DetRng::seed_from(0x7AC0_57EE);
    for _ in 0..512 {
        let num = rng.next_u64();
        let msg = ServerToClient::DataResp {
            op: OpId::new(ReaderId(3), num),
            tag: Tag::new(num, WriterId(1)),
            payload: Payload::Full(Value::from("payload bytes")),
        };
        let bytes = msg.to_bytes();
        // Every strict prefix must fail, not just a sampled one.
        for cut in 0..bytes.len() {
            let prefix = bytes.slice(..cut);
            assert!(
                ServerToClient::from_bytes(&prefix).is_err(),
                "decode of {cut}-byte prefix unexpectedly succeeded"
            );
            assert!(
                copying_decode::<ServerToClient>(&prefix).is_err(),
                "copying decode of {cut}-byte prefix unexpectedly succeeded"
            );
        }
    }
}

#[test]
fn bit_flips_never_roundtrip_to_a_different_op() {
    let mut rng = DetRng::seed_from(0x0F11_BB17);
    for _ in 0..1024 {
        let num = rng.next_u64();
        let msg = ClientToServer::QueryData {
            op: OpId::new(ReaderId(1), num),
        };
        let mut bytes = msg.to_bytes().to_vec();
        let idx = rng.index(bytes.len());
        let bit = rng.index(8) as u8;
        bytes[idx] ^= 1 << bit;
        let bytes = Bytes::from(bytes);
        // The flip either fails to decode or decodes to exactly the bytes
        // sent (no silent normalization that could confuse op matching).
        if let Ok(decoded) = ClientToServer::from_bytes(&bytes) {
            assert_eq!(decoded.to_bytes(), bytes);
        }
    }
}
