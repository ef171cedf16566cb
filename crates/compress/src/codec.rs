//! The frame codec: self-describing compressed payloads.
//!
//! Every encoded frame opens with a one-byte mode tag and the LEB128
//! varint logical (decoded) byte length, so a receiver needs no side
//! channel to decode — the engines' strict length asserts move from the
//! wire length to the decoded length. Three body formats follow:
//!
//! * **Stored** — the logical bytes verbatim. The universal fallback:
//!   no mode ever produces a frame larger than `stored` (header + raw),
//!   so compression never *expands* traffic beyond the few header bytes.
//! * **Words** (lossless) — the payload as little-endian `u64` words,
//!   each XOR'd with its predecessor and LEB128-coded, plus a raw tail
//!   for the last `len % 8` bytes. Bit-exact for any payload; compresses
//!   slowly-varying floats and small integers (piece indices, lengths)
//!   because XOR-delta zeroes the high bytes.
//! * **F64 / F32** (error-bounded lossy) — SZ-style: a linear predictor
//!   `2·rᵢ₋₁ − rᵢ₋₂` over *reconstructed* values feeds a uniform
//!   quantizer with step `2·eb`; each element emits the zigzag varint of
//!   its quantization level (biased by one), with token `0` escaping to
//!   the raw little-endian element. Every element is verified at encode
//!   time — if the reconstruction would miss the bound (non-finite,
//!   level overflow, accumulated rounding), it escapes — so the resolved
//!   bound `eb = max(abs, rel·range)` recorded in the frame header is a
//!   hard guarantee on every decoded element.
//!
//! The decoder replays the identical predictor/reconstruction arithmetic
//! (same operations, same order), so encoder and decoder agree bit-for-bit
//! on reconstructed values — decode is deterministic, and re-encoding a
//! decoded frame is idempotent.

use crate::{Compression, ErrorBound};

const MODE_STORED: u8 = 0;
const MODE_WORDS: u8 = 1;
const MODE_F64: u8 = 2;
const MODE_F32: u8 = 3;

/// Quantization levels beyond ±2⁵³ lose integer precision in the f64
/// arithmetic the decoder replays; escape rather than risk drift.
const MAX_LEVEL: f64 = 9.0e15;

#[inline]
fn put_varint(dst: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        dst.push((v as u8) | 0x80);
        v >>= 7;
    }
    dst.push(v as u8);
}

#[inline]
fn get_varint(src: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = src[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
        assert!(shift < 64, "malformed varint in compressed frame");
    }
}

#[inline]
fn zigzag(q: i64) -> u64 {
    ((q << 1) ^ (q >> 63)) as u64
}

#[inline]
fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn write_header(dst: &mut Vec<u8>, mode: u8, logical_len: usize) {
    dst.push(mode);
    put_varint(dst, logical_len as u64);
}

fn encode_stored(src: &[u8], dst: &mut Vec<u8>) {
    dst.clear();
    write_header(dst, MODE_STORED, src.len());
    dst.extend_from_slice(src);
}

/// Rewrites `dst` as a stored frame if the chosen encoding came out
/// larger than storing the bytes raw would.
fn fallback_to_stored(src: &[u8], dst: &mut Vec<u8>) {
    let mut stored_header = 1;
    let mut v = src.len() as u64;
    loop {
        stored_header += 1;
        v >>= 7;
        if v == 0 {
            break;
        }
    }
    if dst.len() > stored_header + src.len() {
        encode_stored(src, dst);
    }
}

fn encode_words(src: &[u8], dst: &mut Vec<u8>) {
    dst.clear();
    write_header(dst, MODE_WORDS, src.len());
    let mut prev = 0u64;
    let mut chunks = src.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap());
        put_varint(dst, w ^ prev);
        prev = w;
    }
    dst.extend_from_slice(chunks.remainder());
}

fn decode_words(src: &[u8], pos: &mut usize, logical_len: usize, dst: &mut Vec<u8>) {
    let words = logical_len / 8;
    let mut prev = 0u64;
    for _ in 0..words {
        let w = get_varint(src, pos) ^ prev;
        dst.extend_from_slice(&w.to_le_bytes());
        prev = w;
    }
    let tail = logical_len % 8;
    dst.extend_from_slice(&src[*pos..*pos + tail]);
    *pos += tail;
}

/// The linear predictor over the last two reconstructed values.
#[inline]
fn predict(count: usize, p1: f64, p2: f64) -> f64 {
    match count {
        0 => 0.0,
        1 => p1,
        _ => 2.0 * p1 - p2,
    }
}

fn encode_f64(bound: &ErrorBound, src: &[u8], dst: &mut Vec<u8>) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for chunk in src.chunks_exact(8) {
        let x = f64::from_le_bytes(chunk.try_into().unwrap());
        if x.is_finite() {
            min = min.min(x);
            max = max.max(x);
        }
    }
    let eb = if min <= max { bound.resolve(min, max) } else { 0.0 };
    let twoeb = 2.0 * eb;
    dst.clear();
    write_header(dst, MODE_F64, src.len());
    dst.extend_from_slice(&eb.to_le_bytes());
    let (mut p1, mut p2) = (0.0f64, 0.0f64);
    for (count, chunk) in src.chunks_exact(8).enumerate() {
        let x = f64::from_le_bytes(chunk.try_into().unwrap());
        let pred = predict(count, p1, p2);
        // `x == pred` short-circuits to level 0 so an eb of zero (rel
        // bound on a constant field) still quantizes instead of hitting
        // 0/0 and escaping every element.
        let qf = if x == pred { 0.0 } else { ((x - pred) / twoeb).round() };
        let mut recon = x;
        if qf.is_finite() && qf.abs() < MAX_LEVEL {
            let q = qf as i64;
            let r = pred + (q as f64) * twoeb;
            if r.is_finite() && (r - x).abs() <= eb {
                put_varint(dst, zigzag(q) + 1);
                recon = r;
            } else {
                put_varint(dst, 0);
                dst.extend_from_slice(chunk);
            }
        } else {
            put_varint(dst, 0);
            dst.extend_from_slice(chunk);
        }
        p2 = p1;
        p1 = recon;
    }
}

fn decode_f64(src: &[u8], pos: &mut usize, logical_len: usize, dst: &mut Vec<u8>) {
    let eb: f64 = f64::from_le_bytes(src[*pos..*pos + 8].try_into().unwrap());
    *pos += 8;
    let twoeb = 2.0 * eb;
    let (mut p1, mut p2) = (0.0f64, 0.0f64);
    for count in 0..logical_len / 8 {
        let token = get_varint(src, pos);
        let recon = if token == 0 {
            let x = f64::from_le_bytes(src[*pos..*pos + 8].try_into().unwrap());
            *pos += 8;
            x
        } else {
            let q = unzigzag(token - 1);
            predict(count, p1, p2) + (q as f64) * twoeb
        };
        dst.extend_from_slice(&recon.to_le_bytes());
        p2 = p1;
        p1 = recon;
    }
}

fn encode_f32(bound: &ErrorBound, src: &[u8], dst: &mut Vec<u8>) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for chunk in src.chunks_exact(4) {
        let x = f64::from(f32::from_le_bytes(chunk.try_into().unwrap()));
        if x.is_finite() {
            min = min.min(x);
            max = max.max(x);
        }
    }
    let eb = if min <= max { bound.resolve(min, max) } else { 0.0 };
    let twoeb = 2.0 * eb;
    dst.clear();
    write_header(dst, MODE_F32, src.len());
    dst.extend_from_slice(&eb.to_le_bytes());
    let (mut p1, mut p2) = (0.0f64, 0.0f64);
    for (count, chunk) in src.chunks_exact(4).enumerate() {
        let x32 = f32::from_le_bytes(chunk.try_into().unwrap());
        let x = f64::from(x32);
        let pred = predict(count, p1, p2);
        let qf = if x == pred { 0.0 } else { ((x - pred) / twoeb).round() };
        let mut recon = x;
        if qf.is_finite() && qf.abs() < MAX_LEVEL {
            let q = qf as i64;
            let r32 = (pred + (q as f64) * twoeb) as f32;
            if r32.is_finite() && (f64::from(r32) - x).abs() <= eb {
                put_varint(dst, zigzag(q) + 1);
                recon = f64::from(r32);
            } else {
                put_varint(dst, 0);
                dst.extend_from_slice(chunk);
            }
        } else {
            put_varint(dst, 0);
            dst.extend_from_slice(chunk);
        }
        p2 = p1;
        p1 = recon;
    }
}

fn decode_f32(src: &[u8], pos: &mut usize, logical_len: usize, dst: &mut Vec<u8>) {
    let eb: f64 = f64::from_le_bytes(src[*pos..*pos + 8].try_into().unwrap());
    *pos += 8;
    let twoeb = 2.0 * eb;
    let (mut p1, mut p2) = (0.0f64, 0.0f64);
    for count in 0..logical_len / 4 {
        let token = get_varint(src, pos);
        let r32 = if token == 0 {
            let x = f32::from_le_bytes(src[*pos..*pos + 4].try_into().unwrap());
            *pos += 4;
            x
        } else {
            let q = unzigzag(token - 1);
            (predict(count, p1, p2) + (q as f64) * twoeb) as f32
        };
        dst.extend_from_slice(&r32.to_le_bytes());
        p2 = p1;
        p1 = f64::from(r32);
    }
}

/// Encodes `src` into `dst` (cleared first) under `mode`.
///
/// `Lossless` payloads decode bit-exactly. `ErrorBounded` payloads are
/// framed as f64 elements when 8-byte-aligned (and at least two elements
/// long), as f32 elements when only 4-byte-aligned, and losslessly
/// otherwise — index/metadata payloads that don't look like float arrays
/// are never lossy. Any encoding that would exceed `stored` size falls
/// back to a stored frame, so the wire length never exceeds
/// `src.len() + header` (≤ 11 bytes). `Off` is accepted and produces a
/// stored frame, but engines keep `Off` traffic unframed entirely.
pub fn encode_into(mode: &Compression, src: &[u8], dst: &mut Vec<u8>) {
    match mode {
        Compression::Off => encode_stored(src, dst),
        Compression::Lossless => {
            dst.clear();
            dst.reserve(max_encoded_len(src.len()));
            encode_words(src, dst);
            fallback_to_stored(src, dst);
        }
        Compression::ErrorBounded(bound) => {
            if src.len() >= 16 && src.len().is_multiple_of(8) {
                encode_f64(bound, src, dst);
            } else if src.len() >= 8 && src.len().is_multiple_of(4) {
                encode_f32(bound, src, dst);
            } else {
                encode_words(src, dst);
            }
            fallback_to_stored(src, dst);
        }
    }
}

/// The most bytes a `Lossless` encoding of `len` logical bytes can take
/// before the stored fallback: every 8-byte word as a 10-byte varint, the
/// unaligned tail and the header. [`encode_into`] reserves it up front,
/// so a lossless frame never regrows. (Error-bounded frames usually come
/// out several times smaller than their input, so they grow on demand.)
fn max_encoded_len(len: usize) -> usize {
    len + len / 4 + 18
}

/// The logical (decoded) byte length recorded in a frame's header.
pub fn decoded_len(frame: &[u8]) -> usize {
    let mut pos = 1;
    get_varint(frame, &mut pos) as usize
}

/// Decodes a frame produced by [`encode_into`] into `dst` (cleared
/// first); returns the decoded byte length. Panics on a malformed or
/// truncated frame — frames only travel between simulated ranks, so
/// corruption is a bug, not an input condition.
pub fn decode_into(frame: &[u8], dst: &mut Vec<u8>) -> usize {
    let mode = frame[0];
    let mut pos = 1;
    let logical_len = get_varint(frame, &mut pos) as usize;
    dst.clear();
    dst.reserve(logical_len);
    match mode {
        MODE_STORED => {
            dst.extend_from_slice(&frame[pos..pos + logical_len]);
            pos += logical_len;
        }
        MODE_WORDS => decode_words(frame, &mut pos, logical_len, dst),
        MODE_F64 => decode_f64(frame, &mut pos, logical_len, dst),
        MODE_F32 => decode_f32(frame, &mut pos, logical_len, dst),
        other => panic!("unknown compressed-frame mode {other}"),
    }
    assert_eq!(pos, frame.len(), "trailing garbage in compressed frame");
    assert_eq!(dst.len(), logical_len, "frame decoded to the wrong length");
    logical_len
}

/// The maximum absolute elementwise difference between two byte buffers
/// viewed as little-endian f64 arrays (a test/bench helper for checking
/// observed error against the configured bound). Positions where both
/// sides are NaN count as zero error.
pub fn max_f64_error(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut worst = 0.0f64;
    for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let xa = f64::from_le_bytes(ca.try_into().unwrap());
        let xb = f64::from_le_bytes(cb.try_into().unwrap());
        if xa.is_nan() && xb.is_nan() {
            continue;
        }
        worst = worst.max((xa - xb).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn f64_bytes(values: &[f64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn roundtrip(mode: &Compression, src: &[u8]) -> (Vec<u8>, usize) {
        let mut wire = Vec::new();
        encode_into(mode, src, &mut wire);
        assert_eq!(decoded_len(&wire), src.len());
        let mut out = Vec::new();
        let n = decode_into(&wire, &mut out);
        assert_eq!(n, src.len());
        (out, wire.len())
    }

    /// A smooth synthetic science field: large offset, gentle waves.
    fn smooth_field(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                300.0 + 40.0 * (t * 1e-3).sin() + 5.0 * (t * 1.7e-2).sin()
            })
            .collect()
    }

    #[test]
    fn lossless_is_bit_exact_on_arbitrary_bytes() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 1000] {
            let src: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37) ^ 0x5a).collect();
            let (out, _) = roundtrip(&Compression::Lossless, &src);
            assert_eq!(out, src, "len {len}");
        }
    }

    #[test]
    fn lossless_never_expands_beyond_header() {
        // Incompressible noise: XOR-delta varints would expand, so the
        // codec must fall back to a stored frame.
        let src: Vec<u8> = (0..4096u64)
            .flat_map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 23)).to_le_bytes())
            .collect();
        let mut wire = Vec::new();
        encode_into(&Compression::Lossless, &src, &mut wire);
        assert!(wire.len() <= src.len() + 11, "{} > {}", wire.len(), src.len());
        let mut out = Vec::new();
        decode_into(&wire, &mut out);
        assert_eq!(out, src);
    }

    #[test]
    fn lossless_encoding_fits_its_reserved_bound() {
        // Alternating words with the top bit flipping make every XOR
        // delta a full 10-byte varint: the encoder's worst case before it
        // falls back to a stored frame.
        for words in [0u64, 1, 2, 513] {
            for tail in [0usize, 7] {
                let mut src: Vec<u8> = (0..words)
                    .flat_map(|i| if i % 2 == 0 { 0 } else { u64::MAX - i }.to_le_bytes())
                    .collect();
                src.extend(std::iter::repeat_n(0xa5, tail));
                let mut wire = Vec::new();
                encode_into(&Compression::Lossless, &src, &mut wire);
                assert!(
                    wire.capacity() <= max_encoded_len(src.len()),
                    "grew past the bound"
                );
                let mut before_fallback = Vec::new();
                encode_words(&src, &mut before_fallback);
                assert!(
                    before_fallback.len() <= max_encoded_len(src.len()),
                    "bound too small"
                );
            }
        }
    }

    #[test]
    fn lossless_compresses_small_integer_words() {
        let src: Vec<u8> = (0..512u64).flat_map(|i| i.to_le_bytes()).collect();
        let mut wire = Vec::new();
        encode_into(&Compression::Lossless, &src, &mut wire);
        assert!(wire.len() < src.len() / 2, "{} vs {}", wire.len(), src.len());
    }

    #[test]
    fn lossy_error_bounded_on_smooth_field_and_compresses_hard() {
        let field = smooth_field(8192);
        let src = f64_bytes(&field);
        for bound in [ErrorBound::absolute(1e-3), ErrorBound::relative(1e-4)] {
            let mode = Compression::ErrorBounded(bound);
            let (out, wire_len) = roundtrip(&mode, &src);
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in &field {
                min = min.min(v);
                max = max.max(v);
            }
            let eb = bound.resolve(min, max);
            assert!(max_f64_error(&src, &out) <= eb);
            assert!(
                wire_len * 3 < src.len(),
                "smooth field should compress >3x, got {wire_len} of {}",
                src.len()
            );
        }
    }

    #[test]
    fn lossy_error_bounded_on_rough_field() {
        // Pseudo-random but finite values; the predictor misses, levels
        // are large or escape, yet the bound must still hold.
        let field: Vec<f64> = (0..2048u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                ((h >> 11) as f64 / (1u64 << 53) as f64) * 2e6 - 1e6
            })
            .collect();
        let src = f64_bytes(&field);
        let bound = ErrorBound::absolute(0.5);
        let (out, _) = roundtrip(&Compression::ErrorBounded(bound), &src);
        assert!(max_f64_error(&src, &out) <= 0.5);
    }

    #[test]
    fn lossy_escapes_non_finite_values_exactly() {
        let field = [1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.0, 3.0];
        let src = f64_bytes(&field);
        let (out, _) = roundtrip(
            &Compression::ErrorBounded(ErrorBound::absolute(1e-6)),
            &src,
        );
        let decoded: Vec<f64> = out
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert!(decoded[1].is_nan());
        assert_eq!(decoded[2], f64::INFINITY);
        assert_eq!(decoded[3], f64::NEG_INFINITY);
        assert!((decoded[0] - 1.0).abs() <= 1e-6);
    }

    #[test]
    fn lossy_constant_field_is_exact_and_tiny() {
        let src = f64_bytes(&[42.5; 4096]);
        let mode = Compression::ErrorBounded(ErrorBound::relative(1e-4));
        let (out, wire_len) = roundtrip(&mode, &src);
        // rel bound on zero range resolves to eb = 0: the verify step
        // forces exactness, the predictor locks on, tokens are one byte.
        assert_eq!(out, src);
        assert!(wire_len < src.len() / 4);
    }

    #[test]
    fn lossy_f32_path_error_bounded() {
        let field: Vec<f32> = (0..4096).map(|i| (i as f32 * 1e-3).sin() * 100.0).collect();
        let src: Vec<u8> = field.iter().flat_map(|v| v.to_le_bytes()).collect();
        // 4-byte aligned but not 8-byte aligned -> f32 framing.
        let src = &src[..src.len() - 4];
        let (out, _) = roundtrip(
            &Compression::ErrorBounded(ErrorBound::absolute(1e-2)),
            src,
        );
        for (ca, cb) in src.chunks_exact(4).zip(out.chunks_exact(4)) {
            let xa = f32::from_le_bytes(ca.try_into().unwrap());
            let xb = f32::from_le_bytes(cb.try_into().unwrap());
            assert!((f64::from(xa) - f64::from(xb)).abs() <= 1e-2);
        }
    }

    #[test]
    fn lossy_misaligned_payload_falls_back_lossless() {
        let src: Vec<u8> = (0..101).map(|i| i as u8).collect();
        let (out, _) = roundtrip(
            &Compression::ErrorBounded(ErrorBound::default()),
            &src,
        );
        assert_eq!(out, src);
    }

    #[test]
    fn reencoding_decoded_lossy_frame_is_idempotent() {
        let src = f64_bytes(&smooth_field(1024));
        let mode = Compression::ErrorBounded(ErrorBound::absolute(1e-3));
        let (once, _) = roundtrip(&mode, &src);
        let (twice, _) = roundtrip(&mode, &once);
        assert_eq!(once, twice);
    }

    proptest! {
        #[test]
        fn prop_lossless_roundtrips_bit_exact(src in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let (out, wire_len) = roundtrip(&Compression::Lossless, &src);
            prop_assert_eq!(&out, &src);
            prop_assert!(wire_len <= src.len() + 11);
        }

        #[test]
        fn prop_lossy_error_within_bound(
            values in proptest::collection::vec(-1e9f64..1e9f64, 2..512),
            abs in 1e-9f64..1e3f64,
        ) {
            let src = f64_bytes(&values);
            let mode = Compression::ErrorBounded(ErrorBound::absolute(abs));
            let (out, _) = roundtrip(&mode, &src);
            prop_assert!(max_f64_error(&src, &out) <= abs);
        }

        #[test]
        fn prop_lossy_relative_bound_holds(
            values in proptest::collection::vec(-1e6f64..1e6f64, 2..256),
            rel in 1e-7f64..1e-2f64,
        ) {
            let src = f64_bytes(&values);
            let bound = ErrorBound::relative(rel);
            let (out, _) = roundtrip(&Compression::ErrorBounded(bound), &src);
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in &values {
                min = min.min(v);
                max = max.max(v);
            }
            prop_assert!(max_f64_error(&src, &out) <= bound.resolve(min, max));
        }

        #[test]
        fn prop_varint_roundtrips(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(get_varint(&buf, &mut pos), v);
            prop_assert_eq!(pos, buf.len());
        }

        #[test]
        fn prop_zigzag_roundtrips(q in any::<i64>()) {
            prop_assert_eq!(unzigzag(zigzag(q)), q);
        }
    }
}
