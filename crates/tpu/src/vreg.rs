//! VReg tile geometry: the coarse-grained `(8, 128)` 32-bit register
//! group (4 KB) that all VPU/XLU operations are locked to (paper Fig. 4).

/// Sublanes per VReg.
pub(crate) const SUBLANES: usize = 8;
/// Lanes per VReg.
pub(crate) const LANES: usize = 128;
/// 32-bit elements per VReg.
pub(crate) const ELEMS_PER_VREG: usize = SUBLANES * LANES;

/// Number of VRegs needed to hold `elems` 32-bit values.
#[inline]
pub(crate) fn vregs_for(elems: usize) -> usize {
    elems.div_ceil(ELEMS_PER_VREG)
}

/// Tile utilization when data is manipulated in contiguous runs of
/// `run_len` 32-bit elements: small runs waste the rest of the VReg
/// (paper §III-B2's coarse-grained manipulation penalty).
///
/// Returns a fraction in `(0, 1]`.
#[inline]
pub(crate) fn run_utilization(run_len: usize) -> f64 {
    if run_len == 0 {
        return 1.0;
    }
    (run_len as f64 / ELEMS_PER_VREG as f64).min(1.0)
}

/// Effective elements-moved cost of shuffling `elems` values in runs of
/// `run_len`: `elems / utilization` (each partially-filled VReg still
/// costs a full tile through the XLU).
#[inline]
pub(crate) fn effective_shuffle_elems(elems: usize, run_len: usize) -> f64 {
    elems as f64 / run_utilization(run_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vreg_is_4kb() {
        assert_eq!(ELEMS_PER_VREG * 4, 4096);
        assert_eq!(ELEMS_PER_VREG, 1024);
    }

    #[test]
    fn vreg_count_rounds_up() {
        assert_eq!(vregs_for(1), 1);
        assert_eq!(vregs_for(1024), 1);
        assert_eq!(vregs_for(1025), 2);
        assert_eq!(vregs_for(0), 0);
    }

    #[test]
    fn utilization_bounds() {
        assert_eq!(run_utilization(1024), 1.0);
        assert_eq!(run_utilization(4096), 1.0);
        assert_eq!(run_utilization(512), 0.5);
        assert!((run_utilization(1) - 1.0 / 1024.0).abs() < 1e-15);
    }

    #[test]
    fn fine_grained_shuffle_penalty() {
        // Moving 4096 elements one-at-a-time costs 1024x the contiguous move.
        let contiguous = effective_shuffle_elems(4096, 4096);
        let fine = effective_shuffle_elems(4096, 1);
        assert!((fine / contiguous - 1024.0).abs() < 1e-9);
    }
}
