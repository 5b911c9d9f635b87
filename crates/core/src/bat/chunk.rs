//! Byte-chunk decomposition and merging (Alg. 2, lines 1–7).

/// Number of `bp`-bit chunks needed for a `log2 q`-bit modulus:
/// `K = ⌈log2 q / bp⌉` (paper Tab. I / Fig. 8).
pub fn chunk_count(q: u64, bp: u32) -> usize {
    let logq = cross_math::bitrev::ceil_log2(q);
    logq.div_ceil(bp) as usize
}

/// `CHUNKDECOMPOSE`: splits `a` into `k` chunks of `bp` bits,
/// least-significant first.
pub fn decompose(a: u64, k: usize, bp: u32) -> Vec<u64> {
    let mask = (1u64 << bp) - 1;
    (0..k).map(|i| (a >> (i as u32 * bp)) & mask).collect()
}

/// `CHUNKMERGE`: recombines chunks (which may exceed `bp` bits after
/// accumulation — merging handles the implicit carries).
pub fn merge(chunks: &[u64], bp: u32) -> u64 {
    chunks
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &c)| acc + (c << (i as u32 * bp)))
}

/// Merge into `u128` for wide post-matmul partial sums.
pub(crate) fn merge_u128(chunks: &[u64], bp: u32) -> u128 {
    chunks
        .iter()
        .enumerate()
        .fold(0u128, |acc, (i, &c)| acc + ((c as u128) << (i as u32 * bp)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_count_for_cross_config() {
        // 28-bit moduli on an 8-bit MXU → K = 4 (paper §V-A).
        assert_eq!(chunk_count(268_369_921, 8), 4);
        assert_eq!(chunk_count((1 << 16) - 1, 8), 2);
        assert_eq!(chunk_count(2, 8), 1);
    }

    #[test]
    fn roundtrip() {
        for a in [0u64, 1, 0xDEADBEEF, 0x0FFF_0001, u32::MAX as u64] {
            let c = decompose(a, 4, 8);
            assert!(c.iter().all(|&x| x < 256));
            assert_eq!(merge(&c, 8), a, "a={a}");
        }
    }

    #[test]
    fn merge_with_oversized_chunks() {
        // Chunks above 2^bp carry into higher bases when merged.
        assert_eq!(merge(&[300, 0, 0, 0], 8), 300);
        assert_eq!(merge(&[256, 1, 0, 0], 8), 256 + 256);
    }

    #[test]
    fn nonstandard_bp() {
        let a = 0b1011_0110_1101u64;
        let c = decompose(a, 3, 4);
        assert_eq!(c, vec![0b1101, 0b0110, 0b1011]);
        assert_eq!(merge(&c, 4), a);
    }
}
