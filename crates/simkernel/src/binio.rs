//! Little-endian binary encode/decode helpers for on-disk spill runs.
//!
//! The out-of-core semester pipeline writes each shard's output as a
//! compact binary run file and streams it back during the k-way merge.
//! These helpers are the shared wire primitives: fixed-width integers
//! and floats (little-endian; floats by bit pattern, so the round trip
//! is exact for every value including signed zero), and length-prefixed
//! UTF-8 strings.
//!
//! Encoders append to a caller-owned `Vec<u8>` buffer and cannot fail;
//! decoders read from any [`std::io::Read`] and surface truncation as
//! `UnexpectedEof` and malformed payloads as `InvalidData` — never a
//! panic, because the decode path sits under the panic-freedom lint
//! roots of the streaming semester drivers.

use std::io::{self, Read};

/// Append one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u32`, little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` by bit pattern (exact round trip, NaN included).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a length-prefixed UTF-8 string (`u32` byte length + bytes).
///
/// Lengths are truncated to `u32::MAX` by the cast; every name the
/// simulator produces is far below that, and the decoder's length guard
/// rejects anything implausible anyway.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Read one byte.
#[inline]
pub fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    let [b] = buf;
    Ok(b)
}

/// Read a little-endian `u32`.
#[inline]
pub fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Read a little-endian `u64`.
#[inline]
pub fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Read an `f64` by bit pattern.
#[inline]
pub fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    Ok(f64::from_bits(read_u64(r)?))
}

/// Read the length prefix of a string written by [`put_str`].
///
/// `max_len` bounds what the caller will allocate: a corrupt prefix
/// larger than the caller's plausibility bound is `InvalidData` before
/// any byte of the string is read, not an attempted multi-gigabyte
/// allocation.
pub fn read_str_len(r: &mut impl Read, max_len: u32) -> io::Result<usize> {
    let len = read_u32(r)?;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("string length {len} exceeds bound {max_len}"),
        ));
    }
    Ok(len as usize)
}

/// Fill `buf` with a string's bytes, whose length [`read_str_len`]
/// read, and return them as a `str`; bytes that are not UTF-8 are
/// `InvalidData`.
pub fn read_utf8<'a>(r: &mut impl Read, buf: &'a mut [u8]) -> io::Result<&'a str> {
    r.read_exact(buf)?;
    std::str::from_utf8(buf)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("invalid UTF-8: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, 1234.5678);
        let mut r = buf.as_slice();
        assert_eq!(read_u8(&mut r).unwrap(), 7);
        assert_eq!(read_u32(&mut r).unwrap(), 0xdead_beef);
        assert_eq!(read_u64(&mut r).unwrap(), u64::MAX - 1);
        let z = read_f64(&mut r).unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "signed zero preserved");
        assert_eq!(read_f64(&mut r).unwrap(), 1234.5678);
        assert!(r.is_empty());
    }

    /// A string as a reader sees it: the guarded length, then the bytes.
    fn read_string(r: &mut &[u8], max_len: u32) -> io::Result<String> {
        let len = read_str_len(r, max_len)?;
        read_utf8(r, &mut vec![0; len]).map(str::to_owned)
    }

    #[test]
    fn string_round_trip_and_guards() {
        let mut buf = Vec::new();
        put_str(&mut buf, "lab2-s007");
        put_str(&mut buf, "");
        let mut r = buf.as_slice();
        assert_eq!(read_string(&mut r, 1024).unwrap(), "lab2-s007");
        assert_eq!(read_string(&mut r, 1024).unwrap(), "");

        // Length beyond the bound is InvalidData, not an allocation.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        let err = read_str_len(&mut huge.as_slice(), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Truncated payload is UnexpectedEof.
        let mut cut = Vec::new();
        put_str(&mut cut, "abcdef");
        cut.truncate(cut.len() - 2);
        let err = read_string(&mut cut.as_slice(), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Bytes that are not UTF-8 are InvalidData.
        let mut bad = Vec::new();
        put_u32(&mut bad, 2);
        bad.extend_from_slice(&[0xc3, 0x28]);
        let err = read_string(&mut bad.as_slice(), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
