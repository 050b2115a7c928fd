//! LEB128-style unsigned variable-size integers.
//!
//! CSX unit heads store the first-element column as a delta distance "in a
//! variable size integer" (§IV-A). We use the standard little-endian base-128
//! encoding: seven payload bits per byte, high bit set on continuation.

/// Appends the varint encoding of `v` to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a varint from `buf` starting at `*pos`, advancing `*pos`.
///
/// Panics on truncated input or on values exceeding 64 bits — both indicate
/// a corrupted `ctl` stream, which is a program bug, not user input.
#[inline(always)]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
    // Fast path: single-byte varints dominate real ctl streams.
    let first = buf[*pos];
    *pos += 1;
    if first & 0x80 == 0 {
        return u64::from(first);
    }
    let mut result = u64::from(first & 0x7F);
    let mut shift = 7u32;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        result |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return result;
        }
        shift += 7;
        assert!(shift < 64, "varint too long");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_boundaries() {
        for (v, len) in [
            (0u64, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (129, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX as u64, 5),
            (u64::MAX, 10),
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), len, "encoded length of {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn sequences_decode_in_order() {
        let vals = [5u64, 300, 0, 1 << 40];
        let mut buf = Vec::new();
        for &v in &vals {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn single_byte_values() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf, vec![v as u8]);
        }
    }

    #[test]
    #[should_panic]
    fn truncated_input_panics() {
        let buf = vec![0x80u8];
        let mut pos = 0;
        let _ = read_varint(&buf, &mut pos);
    }
}
