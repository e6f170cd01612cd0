//! Byte-wise 64-bit FNV-1a: the one hash fold behind every run
//! fingerprint in the stack (trace streams, corpus cases, chaos and
//! kernel-chain runs, KV serving).
//!
//! Fingerprints are compared across runs, platforms and PRs, so the fold
//! is fixed: each byte is XORed into the accumulator, which is then
//! multiplied by [`FNV_PRIME`]. Multi-byte words are folded as their
//! little-endian bytes.

/// FNV-1a 64-bit offset basis: the accumulator a fresh fold starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the accumulator `h`.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds `word` into `h` as its eight little-endian bytes.
#[inline]
pub fn fnv1a_u64(h: u64, word: u64) -> u64 {
    fnv1a(h, &word.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers from the FNV reference test vectors.
    #[test]
    fn known_answers() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a_u64(FNV_OFFSET, 0x0102_0304_0506_0708),
            fnv1a(FNV_OFFSET, &[8, 7, 6, 5, 4, 3, 2, 1])
        );
    }
}
