//! LEB128 varints and zig-zag signed mapping.

use crate::{invalid, Result};

/// Appends `v` as an LEB128 varint (7 bits per byte, MSB = continuation).
#[inline]
pub fn write(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Number of bytes the LEB128 encoding of `v` occupies — what [`write`]
/// appends.
#[inline]
pub fn size(v: u64) -> usize {
    // Most values on the wire (destination-set words, ids, lengths) are
    // below 128, so test for one byte before dividing.
    if v < 0x80 {
        1
    } else {
        // Significant bits rounded up to whole 7-bit groups.
        (70 - v.leading_zeros() as usize) / 7
    }
}

/// Reads an LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
/// Up to 19 groups of 7 bits are read before giving up, and a value that
/// does not fit 64 bits is an error.
#[inline]
pub fn read(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u128 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| invalid("varint: unexpected end of input"))?;
        *pos += 1;
        if shift >= 128 {
            return Err(invalid("varint: overflow"));
        }
        v |= ((byte & 0x7F) as u128) << shift;
        if byte & 0x80 == 0 {
            return u64::try_from(v).map_err(|_| invalid("varint: exceeds 64 bits"));
        }
        shift += 7;
    }
}

/// Zig-zag maps a signed integer onto an unsigned one so that small
/// magnitudes (of either sign) encode in few bytes.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) {
        let mut buf = Vec::new();
        write(&mut buf, v);
        assert_eq!(buf.len(), size(v));
        let mut pos = 0;
        assert_eq!(read(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_roundtrips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn varint_sizes() {
        assert_eq!(size(0), 1);
        assert_eq!(size(127), 1);
        assert_eq!(size(128), 2);
        assert_eq!(size(16_383), 2);
        assert_eq!(size(16_384), 3);
        assert_eq!(size(u64::MAX), 10);
    }

    #[test]
    fn truncated_varint_errors() {
        let mut pos = 0;
        assert!(read(&[0x80], &mut pos).is_err());
        let mut pos = 0;
        assert!(read(&[], &mut pos).is_err());
    }

    #[test]
    fn oversized_varint_errors() {
        // 19 continuation bytes exceed 128 bits of payload.
        let buf = vec![0xFF; 19];
        let mut pos = 0;
        assert!(read(&buf, &mut pos).is_err());
        // Ten bytes that carry a 65th bit.
        let mut buf = vec![0xFF; 9];
        buf.push(0x02);
        let mut pos = 0;
        assert!(read(&buf, &mut pos).is_err());
    }

    #[test]
    fn zigzag_maps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [-1000i64, -1, 0, 1, 7, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
