//! CRC64 (ECMA-182), the checksum of the consistency kernel.
//!
//! §6.3 offloads a CRC64 data-consistency check to the NIC. The paper
//! notes (footnote 8) that CRC64 "is inherently sequential" with no SIMD
//! or CPU instruction support — which is why the software baseline pays up
//! to 40 % overhead while the FPGA pipeline hides it. This is a real,
//! table-driven implementation used by both the kernel and the software
//! baseline.
//!
//! The hot loop is **slice-by-16**: sixteen composed 256-entry tables
//! consume sixteen input bytes per step. That does not contradict the
//! paper's "inherently sequential" observation — the recurrence is still
//! serial across blocks, there is simply more table lookup per step; the
//! simulator's consistency-kernel and software-baseline experiments hash
//! megabytes, so the constant factor matters. The byte-at-a-time loop is
//! kept as [`crc64_reference`] for differential tests and the `wire_micro`
//! bench.
//!
//! There is no multi-lane variant. The consistency and CRC-verify
//! kernels stream their digest packet by packet through [`Crc64::update`],
//! so the serial recurrence is the one the NIC pipeline runs as well.

/// The ECMA-182 polynomial in normal (MSB-first) form.
pub const POLY_ECMA_182: u64 = 0x42F0_E1EB_A9EA_3693;

/// Slice-by-16 tables for the MSB-first polynomial. `t[0]` is the
/// classic byte table; `t[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes.
fn tables() -> &'static [[u64; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<[[u64; 256]; 16]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u64; 256]; 16]);
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = (i as u64) << 56;
            for _ in 0..8 {
                crc = if crc & (1 << 63) != 0 {
                    (crc << 1) ^ POLY_ECMA_182
                } else {
                    crc << 1
                };
            }
            *entry = crc;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev << 8) ^ t[0][(prev >> 56) as usize];
            }
        }
        t
    })
}

/// One slice-by-16 step: folds a 16-byte block into `crc`.
#[inline(always)]
fn step16(t: &[[u64; 256]; 16], crc: u64, c: &[u8]) -> u64 {
    let x = crc ^ u64::from_be_bytes(c[0..8].try_into().expect("sized"));
    t[15][(x >> 56) as usize]
        ^ t[14][((x >> 48) & 0xff) as usize]
        ^ t[13][((x >> 40) & 0xff) as usize]
        ^ t[12][((x >> 32) & 0xff) as usize]
        ^ t[11][((x >> 24) & 0xff) as usize]
        ^ t[10][((x >> 16) & 0xff) as usize]
        ^ t[9][((x >> 8) & 0xff) as usize]
        ^ t[8][(x & 0xff) as usize]
        ^ t[7][c[8] as usize]
        ^ t[6][c[9] as usize]
        ^ t[5][c[10] as usize]
        ^ t[4][c[11] as usize]
        ^ t[3][c[12] as usize]
        ^ t[2][c[13] as usize]
        ^ t[1][c[14] as usize]
        ^ t[0][c[15] as usize]
}

/// A streaming CRC64 computation.
///
/// `update` may be called with arbitrary split points; the digest is
/// identical to hashing the concatenation in one call (the sliced loop
/// keeps no partial-block state — tails shorter than a block fall back to
/// the byte loop, which commutes with any chunking).
///
/// # Examples
///
/// ```
/// use strom_kernels::crc64::Crc64;
/// let mut a = Crc64::new();
/// a.update(b"hello ");
/// a.update(b"world");
/// assert_eq!(a.finish(), strom_kernels::crc64::crc64(b"hello world"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    /// Starts a new computation.
    pub fn new() -> Self {
        Self { state: 0 }
    }

    /// Feeds more bytes (slice-by-16 fast path).
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(16);
        for c in &mut chunks {
            crc = step16(t, crc, c);
        }
        for &b in chunks.remainder() {
            crc = (crc << 8) ^ t[0][(((crc >> 56) ^ u64::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// Returns the checksum.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot CRC64 over `data`.
pub fn crc64(data: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(data);
    c.finish()
}

/// The original byte-at-a-time CRC64 — the reference implementation the
/// slice-by-16 fast path is differential-tested (and benchmarked) against.
pub fn crc64_reference(data: &[u8]) -> u64 {
    let t = &tables()[0];
    let mut crc = 0u64;
    for &b in data {
        crc = (crc << 8) ^ t[(((crc >> 56) ^ u64::from(b)) & 0xff) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        // ECMA-182 (non-reflected, init 0, no xorout) check value for
        // "123456789".
        assert_eq!(crc64(b"123456789"), 0x6C40_DF5F_0B49_7347);
        assert_eq!(crc64_reference(b"123456789"), 0x6C40_DF5F_0B49_7347);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc64(b""), 0);
        assert_eq!(crc64_reference(b""), 0);
    }

    #[test]
    fn sliced_matches_reference_across_lengths() {
        let data: Vec<u8> = (0..100u32)
            .map(|i| (i.wrapping_mul(41) % 253) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                crc64(&data[..len]),
                crc64_reference(&data[..len]),
                "len = {len}"
            );
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut c = Crc64::new();
        for chunk in data.chunks(777) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc64(&data));
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let mut data = vec![0xa5u8; 512];
        let base = crc64(&data);
        for i in [0usize, 100, 511] {
            data[i] ^= 0x01;
            assert_ne!(crc64(&data), base, "flip at {i} undetected");
            data[i] ^= 0x01;
        }
    }

    #[test]
    fn different_lengths_of_zeros_differ() {
        // CRC64 with init 0 maps all-zero inputs of any length to 0 —
        // a known property of non-inverted CRCs. The consistency kernel's
        // object layout therefore stores the CRC alongside a length, and
        // the experiments use non-zero payloads. Document the property.
        assert_eq!(crc64(&[0u8; 8]), 0);
        assert_eq!(crc64(&[0u8; 64]), 0);
        assert_ne!(crc64(&[1u8; 8]), crc64(&[1u8; 16]));
    }
}
