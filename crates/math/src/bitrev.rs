//! Bit-reversal utilities used by NTT orderings and MAT's offline
//! permutation embedding (paper §IV-B2b).

/// Reverses the lowest `bits` bits of `x`.
///
/// # Example
/// ```
/// use cross_math::bitrev::bit_reverse;
/// assert_eq!(bit_reverse(0b001, 3), 0b100);
/// assert_eq!(bit_reverse(0b110, 3), 0b011);
/// ```
#[inline]
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Returns the bit-reversal permutation of length `n` (a power of two):
/// `perm[i] = bit_reverse(i, log2 n)`.
///
/// # Panics
/// Panics if `n` is not a power of two.
pub fn bit_reverse_permutation(n: usize) -> Vec<usize> {
    assert!(n.is_power_of_two(), "length must be a power of two");
    let bits = n.trailing_zeros();
    (0..n).map(|i| bit_reverse(i, bits)).collect()
}

/// Permutes `data` in place into bit-reversed index order.
pub fn bit_reverse_in_place<T>(data: &mut [T]) {
    assert!(
        data.len().is_power_of_two(),
        "length must be a power of two"
    );
    let bits = data.len().trailing_zeros();
    for i in 0..data.len() {
        let j = bit_reverse(i, bits);
        if i < j {
            data.swap(i, j);
        }
    }
}

/// `⌈log2 x⌉` for `x >= 1`.
#[inline]
pub fn ceil_log2(x: u64) -> u32 {
    assert!(x >= 1);
    64 - (x - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_is_involution() {
        for bits in 1..=12u32 {
            for x in 0..(1usize << bits).min(256) {
                assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
            }
        }
    }

    #[test]
    fn permutation_is_self_inverse() {
        let p = bit_reverse_permutation(16);
        for i in 0..16 {
            assert_eq!(p[p[i]], i);
        }
    }

    #[test]
    fn in_place_matches_permutation() {
        let n = 32usize;
        let mut v: Vec<usize> = (0..n).collect();
        bit_reverse_in_place(&mut v);
        let p = bit_reverse_permutation(n);
        for i in 0..n {
            assert_eq!(v[i], p[i]);
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(268_369_921), 28);
        assert_eq!(ceil_log2(1 << 32), 32);
    }
}
