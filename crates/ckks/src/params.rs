//! CKKS parameter sets (paper Tab. IV + the per-baseline rows of
//! Tab. VIII).

/// The paper's named configurations (Tab. IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamSet {
    /// `log2 Q = 109`, `N = 2^12`, 4 limbs.
    A,
    /// `log2 Q = 218`, `N = 2^13`, 8 limbs.
    B,
    /// `log2 Q = 438`, `N = 2^14`, 15 limbs.
    C,
    /// `log2 Q = 1904`, `N = 2^16`, 51 limbs — the CROSS default.
    D,
}

impl ParamSet {
    /// All sets in order.
    pub const ALL: [ParamSet; 4] = [ParamSet::A, ParamSet::B, ParamSet::C, ParamSet::D];

    /// The concrete parameters of this set.
    pub fn params(self) -> CkksParams {
        match self {
            ParamSet::A => CkksParams::new(1 << 12, 4, 3, 28),
            ParamSet::B => CkksParams::new(1 << 13, 8, 3, 28),
            ParamSet::C => CkksParams::new(1 << 14, 15, 3, 28),
            ParamSet::D => CkksParams::new(1 << 16, 51, 3, 28),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ParamSet::A => "Set A",
            ParamSet::B => "Set B",
            ParamSet::C => "Set C",
            ParamSet::D => "Set D",
        }
    }
}

/// Leveled RNS-CKKS parameters.
///
/// CROSS picks `log2 q < 32` so every limb fits the TPU's 32-bit
/// registers (§V-A); larger-moduli baselines are mapped via double
/// rescaling to twice as many 28-bit limbs (Tab. VIII green rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CkksParams {
    /// Ring degree `N` (power of two).
    pub n: usize,
    /// Number of ciphertext limbs `L` (28-bit moduli).
    pub limbs: usize,
    /// Digit count for hybrid key switching (`dnum`).
    pub dnum: usize,
    /// Bits per modulus (`log2 q`).
    pub log2_q: u32,
}

impl CkksParams {
    /// Builds a parameter set.
    ///
    /// # Panics
    /// Panics on non-power-of-two `n`, zero limbs, or `dnum` not in
    /// `[1, limbs]`.
    pub fn new(n: usize, limbs: usize, dnum: usize, log2_q: u32) -> Self {
        assert!(n.is_power_of_two(), "degree must be a power of two");
        assert!(limbs >= 1, "need at least one limb");
        assert!((1..=limbs).contains(&dnum), "dnum must be in [1, limbs]");
        assert!((20..32).contains(&log2_q), "CROSS uses sub-32-bit moduli");
        Self {
            n,
            limbs,
            dnum,
            log2_q,
        }
    }

    /// A tiny configuration for fast functional tests.
    pub fn toy() -> Self {
        Self::new(1 << 10, 4, 2, 28)
    }

    /// Slot count `N/2`.
    pub(crate) fn slot_count(&self) -> usize {
        self.n / 2
    }

    /// Limbs per key-switching digit: `α = ⌈L/dnum⌉`.
    pub(crate) fn digit_limbs(&self) -> usize {
        self.limbs.div_ceil(self.dnum)
    }

    /// Number of special (extension) limbs `k = α` — the standard
    /// hybrid-KS choice `P ⪆ Q_j` for every digit.
    pub(crate) fn special_limbs(&self) -> usize {
        self.digit_limbs()
    }

    /// Default encoding scale `Δ = 2^{log2 q}`.
    pub fn scale(&self) -> f64 {
        2f64.powi(self.log2_q as i32)
    }

    /// Bytes of one ciphertext (2 polys × limbs × N × 4 B).
    pub(crate) fn ciphertext_bytes(&self) -> usize {
        2 * self.limbs * self.n * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sets_match_table_iv() {
        let a = ParamSet::A.params();
        assert_eq!((a.n, a.limbs), (1 << 12, 4));
        let d = ParamSet::D.params();
        assert_eq!((d.n, d.limbs), (1 << 16, 51));
    }

    #[test]
    fn digit_partitioning() {
        let d = ParamSet::D.params();
        assert_eq!(d.dnum, 3);
        assert_eq!(d.digit_limbs(), 17);
        assert_eq!(d.special_limbs(), 17);
        let toy = CkksParams::toy();
        assert_eq!(toy.digit_limbs(), 2);
    }

    #[test]
    fn scale_matches_modulus_width() {
        let p = CkksParams::toy();
        assert_eq!(p.scale(), 2f64.powi(28));
    }

    #[test]
    #[should_panic(expected = "dnum")]
    fn rejects_bad_dnum() {
        let _ = CkksParams::new(1 << 10, 4, 5, 28);
    }

    #[test]
    fn ciphertext_size_set_d() {
        // Set D: 2 × 51 × 65536 × 4 B ≈ 26.7 MB.
        let d = ParamSet::D.params();
        assert_eq!(d.ciphertext_bytes(), 2 * 51 * 65536 * 4);
    }
}
