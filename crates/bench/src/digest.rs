//! The one FNV-1a (64-bit) behind every pinned digest in this crate's
//! rows and tests: fold bytes or little-endian `u64`s into a running
//! hash that starts at [`FNV_OFFSET`].

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

pub fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a 64 test vectors ("" and "a").
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv_bytes(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv_bytes(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv_u64(FNV_OFFSET, 0x61), fnv_bytes(FNV_OFFSET, &[0x61, 0, 0, 0, 0, 0, 0, 0]));
    }
}
