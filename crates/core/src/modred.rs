//! Modular-reduction strategy selection (paper Fig. 13 ablation).
//!
//! The strategy decides (a) how vectorized modular multiplies execute on
//! the VPU and (b) whether BAT matmul paths are usable (Shoup's
//! precompiled companions are incompatible with BAT; BAT-lazy moves the
//! reduction itself onto the MXU).

use cross_math::{BarrettReducer, Montgomery};
use cross_tpu::{sim::ops, Category, TpuSim};

/// Modular-reduction algorithm used by lowered kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModRed {
    /// Barrett (Alg. 4): wide products, final exact reduction.
    Barrett,
    /// Optimized Montgomery 64→32 (Alg. 1): the paper's TPU optimum.
    Montgomery,
    /// Shoup with precompiled companions: needs 64-bit products, no BAT.
    Shoup,
    /// BAT lazy reduction (App. J): reduction as a `K×K` matmul.
    BatLazy,
}

impl ModRed {
    /// Scalar VPU ops per modular multiply under this strategy.
    pub fn vpu_ops(self) -> u32 {
        match self {
            ModRed::Barrett => ops::BARRETT_MUL,
            ModRed::Montgomery => ops::MONTGOMERY_MUL,
            ModRed::Shoup => ops::SHOUP_MUL,
            // BAT-lazy still multiplies on the VPU, then reduces on the
            // MXU (charged separately by the caller).
            ModRed::BatLazy => ops::MUL_LO,
        }
    }

    /// Whether BAT matmul lowering is available under this strategy.
    pub(crate) fn supports_bat(self) -> bool {
        !matches!(self, ModRed::Shoup)
    }
}

/// A vectorized modular multiplier bound to one modulus and strategy —
/// computes real values on the simulator while charging strategy-
/// specific costs.
#[derive(Debug, Clone)]
pub(crate) struct VecModMul {
    q: u64,
    strategy: ModRed,
    mont: Montgomery,
    barrett: BarrettReducer,
}

impl VecModMul {
    /// Builds the multiplier for `q` under `strategy`.
    pub(crate) fn new(q: u64, strategy: ModRed) -> Self {
        Self {
            q,
            strategy,
            mont: Montgomery::new(q),
            barrett: BarrettReducer::new(q),
        }
    }

    /// Prepares a *preknown* parameter vector for runtime multiplication
    /// (lifting to the Montgomery domain / precomputing Shoup pairs).
    pub(crate) fn prepare_params(&self, w: &[u64]) -> PreparedParams {
        match self.strategy {
            ModRed::Montgomery => PreparedParams::Montgomery(
                w.iter().map(|&x| self.mont.to_mont(x % self.q)).collect(),
            ),
            ModRed::Shoup => {
                let ws: Vec<u64> = w.iter().map(|&x| x % self.q).collect();
                let sh = ws
                    .iter()
                    .map(|&x| (((x as u128) << 64) / self.q as u128) as u64)
                    .collect();
                PreparedParams::Shoup(ws, sh)
            }
            ModRed::Barrett | ModRed::BatLazy => {
                PreparedParams::Plain(w.iter().map(|&x| x % self.q).collect())
            }
        }
    }

    /// Vectorized `a[i]·w[i] mod q` against prepared parameters,
    /// computing on the simulator with strategy-specific cost.
    pub(crate) fn mul_vec(
        &self,
        sim: &mut TpuSim,
        a: &[u64],
        params: &PreparedParams,
        cat: Category,
    ) -> Vec<u64> {
        match (self.strategy, params) {
            (ModRed::Montgomery, PreparedParams::Montgomery(wm)) => {
                sim.vec_mod_mul_montgomery(a, wm, &self.mont, cat)
            }
            (ModRed::Barrett, PreparedParams::Plain(w)) => {
                sim.vec_mod_mul_barrett(a, w, &self.barrett, cat)
            }
            (ModRed::Shoup, PreparedParams::Shoup(w, sh)) => {
                sim.vec_mod_mul_shoup(a, w, sh, self.q, cat)
            }
            (ModRed::BatLazy, PreparedParams::Plain(w)) => {
                // Products on the VPU, reduction as K×K matmul on the MXU
                // (App. J) — tiny reduction dim, poor MXU utilization.
                sim.charge_vpu(a.len(), ops::MUL_LO, cat, "mul lo/hi");
                let k = crate::bat::chunk::chunk_count(self.q, 8);
                sim.charge_matmul_u8(a.len(), 2 * k, k, cat);
                sim.charge_vpu(a.len(), k as u32 + 2, cat, "merge+final sub");
                a.iter()
                    .zip(w)
                    .map(|(&x, &y)| cross_math::modops::mul_mod(x, y, self.q))
                    .collect()
            }
            _ => panic!("prepared parameters do not match strategy"),
        }
    }
}

/// Offline-prepared parameter vectors, strategy-specific.
#[derive(Debug, Clone)]
pub(crate) enum PreparedParams {
    /// Plain reduced values (Barrett / BAT-lazy).
    Plain(Vec<u64>),
    /// Montgomery-domain values.
    Montgomery(Vec<u64>),
    /// `(w, ⌊w·2^64/q⌋)` pairs.
    Shoup(Vec<u64>, Vec<u64>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_tpu::TpuGeneration;

    const Q: u64 = 268_369_921;

    #[test]
    fn all_strategies_compute_identically() {
        let a: Vec<u64> = (0..257u64).map(|i| (i * 999_983) % Q).collect();
        let w: Vec<u64> = (0..257u64).map(|i| (i * 777_777 + 5) % Q).collect();
        let want: Vec<u64> = a
            .iter()
            .zip(&w)
            .map(|(&x, &y)| cross_math::modops::mul_mod(x, y, Q))
            .collect();
        for strat in [
            ModRed::Barrett,
            ModRed::Montgomery,
            ModRed::Shoup,
            ModRed::BatLazy,
        ] {
            let vm = VecModMul::new(Q, strat);
            let params = vm.prepare_params(&w);
            let mut sim = TpuSim::new(TpuGeneration::V6e);
            let got = vm.mul_vec(&mut sim, &a, &params, Category::VecModOps);
            assert_eq!(got, want, "strategy {strat:?}");
        }
    }

    #[test]
    fn montgomery_fastest_on_vpu() {
        // Fig. 13a ordering: Montgomery < Barrett < Shoup in VPU time.
        let a = vec![1u64; 1 << 14];
        let mut times = Vec::new();
        for strat in [ModRed::Montgomery, ModRed::Barrett, ModRed::Shoup] {
            let vm = VecModMul::new(Q, strat);
            let params = vm.prepare_params(&a);
            let mut sim = TpuSim::new(TpuGeneration::V6e);
            let _ = vm.mul_vec(&mut sim, &a, &params, Category::VecModOps);
            times.push(sim.compute_seconds());
        }
        assert!(times[0] < times[1], "Montgomery < Barrett");
        assert!(times[1] < times[2], "Barrett < Shoup");
    }

    #[test]
    fn bat_lazy_charges_mxu() {
        let a = vec![2u64; 4096];
        let vm = VecModMul::new(Q, ModRed::BatLazy);
        let params = vm.prepare_params(&a);
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let _ = vm.mul_vec(&mut sim, &a, &params, Category::VecModOps);
        // The matmul-based reduction shows up in compute time.
        assert!(sim.compute_seconds() > 0.0);
    }

    #[test]
    fn shoup_excluded_from_bat() {
        assert!(!ModRed::Shoup.supports_bat());
        assert!(ModRed::Montgomery.supports_bat());
        assert!(ModRed::Barrett.supports_bat());
        assert!(ModRed::BatLazy.supports_bat());
    }

    #[test]
    #[should_panic(expected = "do not match strategy")]
    fn mismatched_params_rejected() {
        let vm = VecModMul::new(Q, ModRed::Montgomery);
        let params = PreparedParams::Plain(vec![1]);
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let _ = vm.mul_vec(&mut sim, &[1], &params, Category::VecModOps);
    }
}
