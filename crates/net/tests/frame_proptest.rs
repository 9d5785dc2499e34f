//! Seeded property tests for the `sem-net` frame codec.
//!
//! The resilience contract of the transport rests on one invariant:
//! *any* damage to a frame's bytes — header or payload, single flip or
//! burst — must surface as a structured error, never a panic, hang, or
//! silent misparse. These properties pin that invariant on the codec
//! ([`encode_frame`]/[`read_frame`]), reading frames from byte slices
//! with the same [`read_frame`] the reader threads run on live sockets.

use sem_linalg::rng::forall;
use sem_net::transport::{crc32, encode_frame, read_frame, FrameError};

/// Decode one frame from the start of `buf` through [`read_frame`].
fn decode_frame(buf: &[u8]) -> Result<(u32, Vec<u8>), FrameError> {
    read_frame(&mut &buf[..]).expect("reading a byte slice cannot fail")
}

/// A random tag/payload pair: tags exercise the full class+sequence
/// space, payloads span empty through a few KiB.
fn random_frame(rng: &mut sem_linalg::rng::SplitMix64) -> (u32, Vec<u8>) {
    let tag = rng.next_u64() as u32;
    let len = match rng.index(4) {
        0 => 0,
        1 => rng.range(1, 16),
        2 => rng.range(16, 256),
        _ => rng.range(256, 4096),
    };
    let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
    (tag, payload)
}

#[test]
fn encoded_frames_round_trip_bitwise() {
    forall("frame round trip", 0x5EED_F00D, 200, |rng| {
        let (tag, payload) = random_frame(rng);
        let frame = encode_frame(tag, &payload);
        let (tag2, payload2) = decode_frame(&frame).expect("clean frame decodes");
        assert_eq!(tag2, tag);
        assert_eq!(payload2, payload);
    });
}

#[test]
fn any_single_byte_flip_is_detected_structurally() {
    forall("byte flip detection", 0xC0FF_EE00, 300, |rng| {
        let (tag, payload) = random_frame(rng);
        let mut frame = encode_frame(tag, &payload);
        // Flip one random bit of one random byte anywhere in the frame
        // — header (tag, length, CRC) or payload alike.
        let at = rng.index(frame.len());
        let bit = 1u8 << rng.index(8);
        frame[at] ^= bit;
        // The corruption must surface as a structured FrameError (CRC32
        // catches every ≤32-bit burst; a length flip may instead trip
        // the truncation or oversize guard) — never a panic or a clean
        // decode of wrong bytes.
        let err = decode_frame(&frame).expect_err("corruption must not decode");
        match err {
            FrameError::Crc { want, got } => assert_ne!(want, got),
            FrameError::Truncated { need, have } => assert!(need > have),
            FrameError::Oversize { len } => assert!(len > (1 << 30)),
        }
    });
}

#[test]
fn truncation_at_every_boundary_is_detected() {
    forall("truncation detection", 0x7213_CAFE, 100, |rng| {
        let (tag, payload) = random_frame(rng);
        let frame = encode_frame(tag, &payload);
        let keep = rng.index(frame.len()); // strictly shorter prefix
        assert!(
            matches!(decode_frame(&frame[..keep]), Err(FrameError::Truncated { .. })),
            "prefix of {keep}/{} bytes must be Truncated",
            frame.len()
        );
    });
}

#[test]
fn crc32_matches_known_vectors() {
    // The classic IEEE-802.3 check value.
    assert_eq!(crc32(&[b"123456789"]), 0xcbf4_3926);
    assert_eq!(crc32(&[b""]), 0);
    // Split inputs hash identically to their concatenation.
    assert_eq!(crc32(&[b"1234", b"56789"]), crc32(&[b"123456789"]));
}
