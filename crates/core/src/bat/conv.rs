//! Fallback for *unknown* operands (paper App. H, Fig. 16): when neither
//! input is preknown, BAT does not apply and CROSS schedules chunk-wise
//! multiplication as a 1-D convolution over `2K-1` temporal taps,
//! followed by shift-and-add and a final Barrett reduction.

use super::chunk;
use cross_math::BarrettReducer;

/// Chunk-wise product of two words as a 1-D convolution:
/// `psum[t] = Σ_{i+j=t} a_i·b_j` for `t ∈ [0, 2K-1)` (Fig. 16 ❷).
pub(crate) fn conv_psums(a: u64, b: u64, k: usize, bp: u32) -> Vec<u64> {
    let ac = chunk::decompose(a, k, bp);
    let bc = chunk::decompose(b, k, bp);
    let mut psums = vec![0u64; 2 * k - 1];
    for (i, &ai) in ac.iter().enumerate() {
        for (j, &bj) in bc.iter().enumerate() {
            psums[i + j] += ai * bj;
        }
    }
    psums
}

/// Temporal shift-and-add of the psums into the full 64-bit product
/// (Fig. 16 ❸).
pub(crate) fn accumulate_psums(psums: &[u64], bp: u32) -> u64 {
    psums
        .iter()
        .enumerate()
        .fold(0u64, |acc, (t, &p)| acc + (p << (t as u32 * bp)))
}

/// Full fallback modular multiply `a·b mod q` for unknown operands:
/// convolution → accumulate → Barrett (Alg. 4).
pub fn fallback_mod_mul(a: u64, b: u64, q: u64, bp: u32) -> u64 {
    let k = chunk::chunk_count(q, bp);
    let z = accumulate_psums(&conv_psums(a, b, k, bp), bp);
    BarrettReducer::new(q).reduce_u64(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_math::modops;

    const Q: u64 = 268_369_921;

    #[test]
    fn psum_count_is_2k_minus_1() {
        let p = conv_psums(123, 456, 4, 8);
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn psum_width_bound() {
        // Each psum ≤ K·(2^bp-1)² < 2^18 (paper: 16+log2(K) bits).
        let p = conv_psums(u32::MAX as u64, u32::MAX as u64, 4, 8);
        assert!(p.iter().all(|&x| x < (1 << 18)));
    }

    #[test]
    fn accumulate_reconstructs_product() {
        for (a, b) in [
            (0u64, 0u64),
            (1, 1),
            (0xFFFF_FFFF, 0xFFFF_FFFF),
            (12345, 67890),
        ] {
            let z = accumulate_psums(&conv_psums(a, b, 4, 8), 8);
            assert_eq!(z, a * b, "a={a} b={b}");
        }
    }

    #[test]
    fn fallback_matches_reference() {
        for (a, b) in [(Q - 1, Q - 1), (12345, 67890), (0, 5), (1, Q - 1)] {
            assert_eq!(fallback_mod_mul(a, b, Q, 8), modops::mul_mod(a, b, Q));
        }
    }
}
