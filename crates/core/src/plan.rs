//! `(R, C)` factorization planning (paper §V-A "CROSS Configuration").
//!
//! CROSS sweeps `(R,C) ∈ {(128,512), (256,256), (512,128)}`-style
//! factorizations for HE operators and pins `R = 128` (the lane count)
//! for standalone NTT throughput runs; degrees too small for either
//! fall back to the balanced split.

/// The balanced square-ish `(R, C)` split — the fallback factorization
/// for degrees too small for the paper's lane-width candidates.
///
/// # Panics
/// Panics if `n` is not a power of two.
pub(crate) fn balanced_rc(n: usize) -> (usize, usize) {
    assert!(n.is_power_of_two());
    let logn = n.trailing_zeros();
    let r = 1usize << (logn / 2);
    (r, n / r)
}

/// The standalone-NTT configuration of §V-A: `R = 128` lanes,
/// `C = N/128` (falling back to balanced for `N < 256`).
pub fn standalone_ntt_rc(n: usize) -> (usize, usize) {
    if n >= 256 && n.is_multiple_of(128) {
        (128, n / 128)
    } else {
        balanced_rc(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_pins_lanes() {
        assert_eq!(standalone_ntt_rc(1 << 12), (128, 32));
        assert_eq!(standalone_ntt_rc(1 << 16), (128, 512));
        // tiny degree falls back
        assert_eq!(standalone_ntt_rc(1 << 6), (8, 8));
    }

    #[test]
    fn balanced_split_shapes() {
        assert_eq!(balanced_rc(1 << 6), (8, 8));
        assert_eq!(balanced_rc(1 << 7), (8, 16));
        assert_eq!(balanced_rc(1 << 12), (64, 64));
        // The small-degree fallback is the balanced split.
        assert_eq!(standalone_ntt_rc(1 << 6), balanced_rc(1 << 6));
    }
}
