//! Modular-reduction strategy selection (paper Fig. 13 ablation).
//!
//! The strategy decides (a) what vectorized modular multiplies cost on
//! the VPU and (b) whether BAT matmul paths are usable (Shoup's
//! precompiled companions are incompatible with BAT; BAT-lazy moves the
//! reduction itself onto the MXU). It is a cost and nothing else: the
//! simulator charges the strategy's products, and the values come from
//! the one host arithmetic in `cross_math`.

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
            // MXU (see `charge_vec_mod_mul`).
            ModRed::BatLazy => ops::MUL_LO,
        }
    }

    /// Whether BAT matmul lowering is available under this strategy.
    pub(crate) fn supports_bat(self) -> bool {
        !matches!(self, ModRed::Shoup)
    }

    /// Charges `elems` element-wise modular products `a·w mod q` on the
    /// VPU under this strategy — the simulator's VecModMul. The charge
    /// is the whole model: every strategy yields the same canonical
    /// product, so callers compute the value with
    /// [`cross_math::modops::mul_mod`].
    pub fn charge_vec_mod_mul(self, sim: &mut TpuSim, elems: usize, q: u64, cat: Category) {
        let label = match self {
            ModRed::Barrett => "vec_mod_mul(barrett)",
            ModRed::Montgomery => "vec_mod_mul(montgomery)",
            ModRed::Shoup => "vec_mod_mul(shoup)",
            ModRed::BatLazy => {
                // Products on the VPU, reduction as K×K matmul on the MXU
                // (App. J) — tiny reduction dim, poor MXU utilization.
                sim.charge_vpu(elems, ops::MUL_LO, cat, "mul lo/hi");
                let k = crate::bat::chunk::chunk_count(q, 8);
                sim.charge_matmul_u8(elems, 2 * k, k, cat);
                sim.charge_vpu(elems, k as u32 + 2, cat, "merge+final sub");
                return;
            }
        };
        sim.charge_vpu(elems, self.vpu_ops(), cat, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_tpu::TpuGeneration;

    const Q: u64 = 268_369_921;

    fn charged(strat: ModRed, elems: usize) -> TpuSim {
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        strat.charge_vec_mod_mul(&mut sim, elems, Q, Category::VecModOps);
        sim
    }

    #[test]
    fn montgomery_fastest_on_vpu() {
        // Fig. 13a ordering: Montgomery < Barrett < Shoup in VPU time.
        let times: Vec<f64> = [ModRed::Montgomery, ModRed::Barrett, ModRed::Shoup]
            .map(|s| charged(s, 1 << 14).compute_seconds())
            .to_vec();
        assert!(times[0] < times[1], "Montgomery < Barrett");
        assert!(times[1] < times[2], "Barrett < Shoup");
    }

    #[test]
    fn vpu_strategies_charge_one_labelled_pass() {
        for strat in [ModRed::Barrett, ModRed::Montgomery, ModRed::Shoup] {
            let sim = charged(strat, 4096);
            let labels: Vec<&str> = sim.trace().entries().iter().map(|e| e.label).collect();
            assert_eq!(labels.len(), 1, "{strat:?}");
            assert!(
                labels[0].starts_with("vec_mod_mul("),
                "{strat:?}: {labels:?}"
            );
        }
    }

    #[test]
    fn bat_lazy_charges_mxu() {
        // The matmul-based reduction shows up between the VPU passes.
        let sim = charged(ModRed::BatLazy, 4096);
        let labels: Vec<&str> = sim.trace().entries().iter().map(|e| e.label).collect();
        assert_eq!(labels, ["mul lo/hi", "matmul", "merge+final sub"]);
        assert!(sim.compute_seconds() > charged(ModRed::Shoup, 4096).compute_seconds());
    }

    #[test]
    fn shoup_excluded_from_bat() {
        assert!(!ModRed::Shoup.supports_bat());
        assert!(ModRed::Montgomery.supports_bat());
        assert!(ModRed::Barrett.supports_bat());
        assert!(ModRed::BatLazy.supports_bat());
    }
}
