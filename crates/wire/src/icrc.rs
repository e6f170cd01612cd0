//! The invariant CRC (ICRC) trailer of RoCE packets.
//!
//! Every RoCE packet carries a 4-byte CRC-32 over the fields that are
//! invariant end-to-end. Its presence matters for timing: the transmitter
//! must see the whole packet before it can append the ICRC, and the
//! receiver must see the whole packet before it can validate it, forcing
//! **store-and-forward** at both ends (§7.1: a full MTU is 176 words at
//! 8 B versus 22 words at 64 B, which is why the 100 G datapath cuts
//! latency by more than the clock ratio alone).
//!
//! We compute a real CRC-32 (the IB polynomial `0x04C11DB7`, reflected
//! form `0xEDB88320`) over the packet bytes. We do not reproduce the IB
//! rule that masks variant header fields to `0xff` before hashing — the
//! simulated link never rewrites TTL/DSCP, so the distinction is
//! unobservable here (noted in DESIGN.md §8).
//!
//! The FPGA computes the ICRC over a full datapath word per cycle. The
//! software counterpart is **folding by carry-less multiplication**
//! (PCLMULQDQ, Gopal et al., Intel 2009): four 128-bit lanes of state each
//! absorb a 16-byte block per step, so 64 input bytes cost eight
//! 64×64-bit multiplies and a few XORs instead of 64 table lookups. The
//! folded state reduces to one lane, then to 32 bits with a Barrett
//! reduction. The 0–15-byte tail, every input under 64 bytes, and every
//! input on a host without PCLMULQDQ run **slice-by-16**: sixteen
//! 256-entry tables that consume sixteen bytes per step (a 0–15-byte
//! remainder steps four bytes at a time through the same tables). The choice
//! depends only on the CPU probe and the input length, never on a
//! setting, and both paths return the same bits. The original
//! byte-at-a-time loop is kept as [`icrc_reference`]. The unit tests
//! below, the differential property tests in `tests/prop.rs` and the
//! `wire_micro` bench compare against it.

/// Length of the ICRC trailer.
pub const ICRC_LEN: usize = 4;

/// The sixteen slice-by-16 lookup tables for the reflected polynomial
/// `0xEDB88320`. `t[0]` is the classic byte-at-a-time table; `t[k][b]` is
/// the CRC contribution of byte `b` followed by `k` zero bytes, so
/// sixteen single-byte steps fuse into one sixteen-way XOR.
fn tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<[[u32; 256]; 16]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 16]);
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            }
        }
        t
    })
}

/// Computes the ICRC over `data`.
///
/// On x86-64 hosts with PCLMULQDQ and SSE4.1, inputs of at least 64 bytes
/// fold their 16-byte-aligned prefix by carry-less multiplication and
/// finish the 0–15-byte tail with the slice-by-16 loop. Every other input,
/// and every input on other hosts, runs slice-by-16 alone. Both paths
/// return the same 32 bits.
pub fn icrc(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` confirmed PCLMULQDQ and SSE4.1 on this CPU.
        let (crc, tail) = unsafe { clmul::fold(!0, data) };
        return !slice16(crc, tail);
    }
    !slice16(!0, data)
}

/// The ICRC implementation [`icrc`] runs on this host for inputs of at
/// least 64 bytes: `"pclmulqdq"` or `"slice16"`.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        return "pclmulqdq";
    }
    "slice16"
}

/// Slice-by-16: advances the raw CRC register `crc` (not inverted) over
/// `data` and returns the new register.
fn slice16(mut crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes(c[0..4].try_into().expect("sized"));
        crc = t[15][(lo & 0xff) as usize]
            ^ t[14][((lo >> 8) & 0xff) as usize]
            ^ t[13][((lo >> 16) & 0xff) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    // A 0–15-byte remainder steps four bytes at a time through the same
    // tables, then takes its last 0–3 bytes one at a time.
    let mut words = chunks.remainder().chunks_exact(4);
    for c in &mut words {
        let x = crc ^ u32::from_le_bytes(c.try_into().expect("sized"));
        crc = t[3][(x & 0xff) as usize]
            ^ t[2][((x >> 8) & 0xff) as usize]
            ^ t[1][((x >> 16) & 0xff) as usize]
            ^ t[0][(x >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// CRC-32 folding by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009), for
/// the reflected polynomial `0xEDB88320`. The constants are the paper's,
/// the same set Linux's `crc32-pclmul` uses: each `k` is `x^n mod P(x)`
/// for an exponent `n` set by its fold distance, bit-reflected.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold by 512 bits (four lanes, 64 B per step).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold by 128 bits (one lane, 16 B per step), and the 128→96 fold.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// The 96→64 fold.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: the polynomial P′ and μ = ⌊x^64 / P(x)⌋.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Shortest input [`fold`] takes: its four 128-bit lanes start from
    /// one 64-byte block.
    pub(super) const MIN_LEN: usize = 64;

    /// Whether this CPU can run [`fold`].
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Loads the first 16 bytes of `b` (any alignment).
    #[inline(always)]
    fn load(b: &[u8]) -> __m128i {
        let b: &[u8; 16] = b[..16].try_into().expect("a 16-byte block");
        // SAFETY: `b` is 16 readable bytes, `loadu` has no alignment
        // requirement, and SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// Folds the 128-bit lane `acc` forward over the distance encoded in
    /// `k` and adds the next block: `acc.lo·k.lo ⊕ acc.hi·k.hi ⊕ next`.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_into(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advances the raw CRC register `crc` over the 16-byte-aligned prefix
    /// of `data` and returns the new register with the unread 0–15-byte
    /// tail.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1.
    ///
    /// # Panics
    ///
    /// Panics if `data` is shorter than [`MIN_LEN`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        let (first, mut rest) = data.split_at(MIN_LEN);
        let mut x0 = _mm_xor_si128(load(first), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = load(&first[16..]);
        let mut x2 = load(&first[32..]);
        let mut x3 = load(&first[48..]);

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for b in &mut blocks {
            x0 = fold_into(x0, load(b), k1k2);
            x1 = fold_into(x1, load(&b[16..]), k1k2);
            x2 = fold_into(x2, load(&b[32..]), k1k2);
            x3 = fold_into(x3, load(&b[48..]), k1k2);
        }
        rest = blocks.remainder();

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x0, x1, k3k4);
        x = fold_into(x, x2, k3k4);
        x = fold_into(x, x3, k3k4);
        let mut lanes = rest.chunks_exact(16);
        for b in &mut lanes {
            x = fold_into(x, load(b), k3k4);
        }

        // 128 → 96 bits: x.lo·K4 ⊕ x.hi; then 96 → 64 bits: the low 32
        // bits times K5 ⊕ the upper 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction 64 → 32 bits, bit-reflected: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the remainder is bits 32..64 of R ⊕ T2.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        (crc, lanes.remainder())
    }
}

/// The original byte-at-a-time ICRC — the reference implementation the
/// slice-by-16 fast path is differential-tested (and benchmarked) against.
pub fn icrc_reference(data: &[u8]) -> u32 {
    let t = &tables()[0];
    let mut crc = 0xffff_ffffu32;
    for &b in data {
        crc = (crc >> 8) ^ t[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Appends the ICRC of everything currently in `buf` to `buf`.
pub fn append_icrc(buf: &mut Vec<u8>) {
    let crc = icrc(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Splits `buf` into `(body, ok)` where `ok` says whether the trailing
/// ICRC matches the body.
pub fn check_icrc(buf: &[u8]) -> Option<(&[u8], bool)> {
    if buf.len() < ICRC_LEN {
        return None;
    }
    let (body, trailer) = buf.split_at(buf.len() - ICRC_LEN);
    let got = u32::from_le_bytes(trailer.try_into().expect("sized slice"));
    Some((body, got == icrc(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic CRC-32 check value.
        assert_eq!(icrc(b"123456789"), 0xCBF4_3926);
        assert_eq!(icrc_reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(icrc(b""), 0);
        assert_eq!(icrc_reference(b""), 0);
    }

    /// The portable path on its own, whatever this host's backend.
    fn icrc_slice16(data: &[u8]) -> u32 {
        !slice16(!0, data)
    }

    #[test]
    fn both_paths_match_reference_across_lengths_and_offsets() {
        // Every length through the table path, the fold's single-lane
        // loop and (from 128 B) its four-lane loop, at every start offset
        // within a 16-byte block, plus an MTU-scale body and a page.
        let data: Vec<u8> = (0..4096 + 16u32)
            .map(|i| (i.wrapping_mul(37) % 251) as u8)
            .collect();
        let lens = (0..=512).chain([1478, 4096]);
        for len in lens {
            for start in 0..16 {
                let d = &data[start..start + len];
                let want = icrc_reference(d);
                assert_eq!(icrc(d), want, "icrc: len = {len}, start = {start}");
                assert_eq!(
                    icrc_slice16(d),
                    want,
                    "slice16: len = {len}, start = {start}"
                );
            }
        }
    }

    #[test]
    fn append_then_check_round_trips() {
        let mut buf = b"the packet body".to_vec();
        append_icrc(&mut buf);
        let (body, ok) = check_icrc(&buf).unwrap();
        assert!(ok);
        assert_eq!(body, b"the packet body");
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = b"the packet body".to_vec();
        append_icrc(&mut buf);
        buf[3] ^= 0x10;
        let (_, ok) = check_icrc(&buf).unwrap();
        assert!(!ok);
    }

    #[test]
    fn trailer_corruption_is_detected() {
        let mut buf = b"x".to_vec();
        append_icrc(&mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 1;
        let (_, ok) = check_icrc(&buf).unwrap();
        assert!(!ok);
    }

    #[test]
    fn short_buffer_has_no_icrc() {
        assert!(check_icrc(&[1, 2, 3]).is_none());
    }
}
