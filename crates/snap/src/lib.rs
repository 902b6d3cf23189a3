//! Versioned, checksummed binary snapshot codec.
//!
//! This crate is the wire layer under the crash-safe campaign machinery:
//! `sim` encodes full connection state through it, `trace` encodes the
//! incremental analyzer cores, and `testbed` frames journal records with
//! its CRC. It is deliberately dependency-free and panic-free: every read
//! is bounds-checked and returns a [`SnapError`] instead of slicing out of
//! range, so corrupt or truncated input degrades to an `Err` the caller
//! can treat as a clean truncation point (the house lenient-decode style).
//!
//! # Format
//!
//! Primitive values are little-endian fixed-width integers; `f64` travels
//! as its IEEE-754 bit pattern via [`f64::to_bits`] so NaN payloads and
//! signed zeros survive a round trip bit-identically. Variable-length byte
//! strings carry a `u64` length prefix. Composite snapshots are framed by
//! [`frame`]/[`unframe`]: an 8-byte magic, a `u32` kind, a `u32` version,
//! a `u64` payload length, a CRC-32 of the payload, then the payload.
//!
//! Snapshots capture *mutable* state only. Restoring applies a snapshot
//! into a freshly-built, identically-configured object; shape tags written
//! by the encoder and checked by the decoder ([`SnapReader::expect_tag`])
//! turn configuration mismatches into [`SnapError::TagMismatch`] rather
//! than silent corruption.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::error::Error;
use std::fmt;

/// Magic bytes opening every framed snapshot.
pub const MAGIC: [u8; 8] = *b"PFTKSNAP";

/// Reasons a snapshot failed to decode.
///
/// All variants are recoverable: decoding never panics, and the journal
/// layer maps any of these on the tail record to a clean truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Input ended before the requested value was complete.
    Truncated,
    /// Framed input did not start with [`MAGIC`].
    BadMagic,
    /// Frame version is one this decoder does not parse: newer than it
    /// understands ([`unframe`]), or any other than the one it reads
    /// ([`unframe_exact`]).
    UnsupportedVersion {
        /// Version found in the frame header.
        found: u32,
        /// The version (or, for [`unframe`], newest version) this decoder
        /// reads.
        supported: u32,
    },
    /// Payload bytes do not match the frame's CRC-32.
    ChecksumMismatch,
    /// A shape tag did not match: the snapshot was taken from an object
    /// configured differently from the restore target.
    TagMismatch {
        /// What the tag guards (e.g. `"loss-kind"`).
        context: &'static str,
        /// Tag the restore target expected.
        expected: u64,
        /// Tag found in the snapshot.
        found: u64,
    },
    /// A decoded value is structurally invalid (bad bool byte, length
    /// overflow, out-of-range discriminant, ...).
    Invalid(&'static str),
    /// The state contains something the codec cannot capture (e.g. a
    /// type-erased `Box<dyn>` loss process with unknown internals).
    Unsupported(&'static str),
    /// Decoding finished but input bytes remain.
    TrailingBytes,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "snapshot magic bytes missing"),
            SnapError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (decoder reads {supported})"
                )
            }
            SnapError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapError::TagMismatch {
                context,
                expected,
                found,
            } => {
                write!(
                    f,
                    "snapshot shape mismatch at {context}: expected {expected}, found {found}"
                )
            }
            SnapError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
            SnapError::Unsupported(what) => write!(f, "state not snapshottable: {what}"),
            SnapError::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
        }
    }
}

impl Error for SnapError {}

/// Convenience alias for codec results.
pub type SnapResult<T> = Result<T, SnapError>;

/// Slicing-by-8 lookup tables: `CRC32_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC32_TABLES[k][i]` extends it by `k` zero
/// bytes, letting [`crc32`] fold eight input bytes per iteration. The
/// polynomial and the resulting checksum are the standard reflected
/// CRC-32 (IEEE 802.3) — only throughput changes (checkpoint snapshots
/// run to hundreds of kilobytes, and the frame and journal codecs each
/// checksum every byte).
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
///
/// Shared by the frame codec and the testbed journal's record framing.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC32_TABLES[0][idx];
    }
    !crc
}

/// Append-only encoder for snapshot payloads.
///
/// All writes are infallible; the buffer grows as needed. Finish with
/// [`SnapWriter::into_bytes`] (raw payload) or wrap in [`frame`].
#[derive(Debug, Default, Clone)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Creates a writer with `capacity` bytes preallocated.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SnapWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded payload.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64` little-endian.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, preserving NaN
    /// payloads and signed zeros bit-for-bit.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed byte string (`u64` length, then bytes).
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Writes raw bytes with no length prefix (caller knows the length).
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a shape tag — a `u64` the decoder checks with
    /// [`SnapReader::expect_tag`] to catch configuration mismatches.
    #[inline]
    pub fn put_tag(&mut self, tag: u64) {
        self.put_u64(tag);
    }
}

/// Bounds-checked decoder over an encoded payload.
///
/// Every accessor returns [`SnapError::Truncated`] instead of reading out
/// of range; decoding arbitrary corrupt bytes can fail but never panic.
#[derive(Debug, Clone)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True if every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Asserts all input was consumed; [`SnapError::TrailingBytes`] if not.
    pub fn finish(&self) -> SnapResult<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(SnapError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a single byte.
    #[inline]
    pub fn get_u8(&mut self) -> SnapResult<u8> {
        let bytes = self.take(1)?;
        Ok(bytes[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> SnapResult<u32> {
        let bytes = self.take(4)?;
        let arr: [u8; 4] = bytes.try_into().map_err(|_| SnapError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> SnapResult<u64> {
        let bytes = self.take(8)?;
        let arr: [u8; 8] = bytes.try_into().map_err(|_| SnapError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn get_i64(&mut self) -> SnapResult<i64> {
        let bytes = self.take(8)?;
        let arr: [u8; 8] = bytes.try_into().map_err(|_| SnapError::Truncated)?;
        Ok(i64::from_le_bytes(arr))
    }

    /// Reads a `usize` encoded as `u64`; [`SnapError::Invalid`] if the
    /// value does not fit this platform's `usize`.
    #[inline]
    pub fn get_usize(&mut self) -> SnapResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Invalid("usize overflow"))
    }

    /// Reads a bool byte; anything other than 0/1 is [`SnapError::Invalid`].
    #[inline]
    pub fn get_bool(&mut self) -> SnapResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Invalid("bool byte")),
        }
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> SnapResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// The length is validated against the remaining input *before* any
    /// allocation, so a corrupt huge length cannot trigger an OOM abort.
    #[inline]
    pub fn get_bytes(&mut self) -> SnapResult<&'a [u8]> {
        let len = self.get_usize()?;
        if len > self.remaining() {
            return Err(SnapError::Truncated);
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> SnapResult<String> {
        let bytes = self.get_bytes()?;
        let s = std::str::from_utf8(bytes).map_err(|_| SnapError::Invalid("utf-8 string"))?;
        Ok(s.to_owned())
    }

    /// Reads `n` raw bytes with no length prefix.
    #[inline]
    pub fn get_raw(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        self.take(n)
    }

    /// Reads a shape tag and checks it against `expected`; a mismatch is
    /// [`SnapError::TagMismatch`] naming `context`.
    #[inline]
    pub fn expect_tag(&mut self, context: &'static str, expected: u64) -> SnapResult<()> {
        let found = self.get_u64()?;
        if found == expected {
            Ok(())
        } else {
            Err(SnapError::TagMismatch {
                context,
                expected,
                found,
            })
        }
    }
}

/// A decoded frame header plus its validated payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framed<'a> {
    /// Caller-defined record kind (e.g. connection vs analyzer snapshot).
    pub kind: u32,
    /// Format version the payload was written with.
    pub version: u32,
    /// The CRC-validated payload bytes.
    pub payload: &'a [u8],
}

/// Wraps `payload` in the snapshot frame: magic, kind, version, length,
/// CRC-32, payload.
//= pftk#snapshot-codec
#[must_use]
pub fn frame(kind: u32, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + 4 + 8 + 4 + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parses and validates a frame produced by [`frame`].
///
/// `max_version` is the newest version the caller's decoder understands;
/// newer frames are rejected with [`SnapError::UnsupportedVersion`].
/// Trailing bytes after the payload are rejected ([`SnapError::TrailingBytes`]).
pub fn unframe(bytes: &[u8], max_version: u32) -> SnapResult<Framed<'_>> {
    let mut r = SnapReader::new(bytes);
    let magic = r.get_raw(MAGIC.len())?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let kind = r.get_u32()?;
    let version = r.get_u32()?;
    if version > max_version {
        return Err(SnapError::UnsupportedVersion {
            found: version,
            supported: max_version,
        });
    }
    let len = r.get_usize()?;
    let expected_crc = r.get_u32()?;
    if len != r.remaining() {
        return Err(if len > r.remaining() {
            SnapError::Truncated
        } else {
            SnapError::TrailingBytes
        });
    }
    let payload = r.get_raw(len)?;
    if crc32(payload) != expected_crc {
        return Err(SnapError::ChecksumMismatch);
    }
    Ok(Framed {
        kind,
        version,
        payload,
    })
}

/// [`unframe`] for a decoder that parses exactly one layout: any frame
/// version other than `version` — older ones included — is rejected with
/// [`SnapError::UnsupportedVersion`] instead of being misread as the
/// current layout.
pub fn unframe_exact(bytes: &[u8], version: u32) -> SnapResult<Framed<'_>> {
    let framed = unframe(bytes, version)?;
    if framed.version != version {
        return Err(SnapError::UnsupportedVersion {
            found: framed.version,
            supported: version,
        });
    }
    Ok(framed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_usize(12345);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(-0.0);
        w.put_f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN with payload
        w.put_bytes(b"hello");
        w.put_str("snapshot");
        w.put_tag(99);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8(), Ok(0xAB));
        assert_eq!(r.get_u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Ok(u64::MAX - 3));
        assert_eq!(r.get_i64(), Ok(-42));
        assert_eq!(r.get_usize(), Ok(12345));
        assert_eq!(r.get_bool(), Ok(true));
        assert_eq!(r.get_bool(), Ok(false));
        assert_eq!(r.get_f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.get_f64().map(f64::to_bits), Ok(0x7FF8_0000_0000_1234));
        assert_eq!(r.get_bytes(), Ok(&b"hello"[..]));
        assert_eq!(r.get_str(), Ok("snapshot".to_owned()));
        assert_eq!(r.expect_tag("t", 99), Ok(()));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn truncated_reads_error() {
        let mut w = SnapWriter::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(SnapError::Truncated));
    }

    #[test]
    fn bad_bool_and_huge_length_are_invalid_not_panics() {
        let mut r = SnapReader::new(&[7]);
        assert_eq!(r.get_bool(), Err(SnapError::Invalid("bool byte")));

        // Length prefix far beyond the buffer: must not allocate or panic.
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn tag_mismatch_reports_context() {
        let mut w = SnapWriter::new();
        w.put_tag(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.expect_tag("loss-kind", 2),
            Err(SnapError::TagMismatch {
                context: "loss-kind",
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn frame_round_trip_and_rejections() {
        let payload = b"state bytes".to_vec();
        let framed = frame(3, 1, &payload);
        let f = match unframe(&framed, 1) {
            Ok(f) => f,
            Err(e) => panic!("unframe failed: {e}"),
        };
        assert_eq!(f.kind, 3);
        assert_eq!(f.version, 1);
        assert_eq!(f.payload, &payload[..]);

        // Newer version than supported.
        let newer = frame(3, 2, &payload);
        assert_eq!(
            unframe(&newer, 1),
            Err(SnapError::UnsupportedVersion {
                found: 2,
                supported: 1
            })
        );

        // Flip a payload bit: checksum catches it.
        let mut corrupt = framed.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert_eq!(unframe(&corrupt, 1), Err(SnapError::ChecksumMismatch));

        // Truncate mid-payload.
        assert_eq!(
            unframe(&framed[..framed.len() - 3], 1),
            Err(SnapError::Truncated)
        );

        // Bad magic.
        let mut nomagic = framed.clone();
        nomagic[0] ^= 0xFF;
        assert_eq!(unframe(&nomagic, 1), Err(SnapError::BadMagic));

        // Trailing junk.
        let mut long = framed;
        long.push(0);
        assert_eq!(unframe(&long, 1), Err(SnapError::TrailingBytes));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
