//! Packed-bootstrapping kernel counts (paper §V-E, Tab. IX).
//!
//! The paper estimates bootstrapping "by multiplying the overall number
//! of HE kernel invocations with each profiled realistic latency …
//! worst case, assuming no pipeline or fusion" (§V-A). This module
//! supplies the invocation counts: they follow the packed
//! bootstrapping structure of MAD \[3\] (ModRaise → CoeffToSlot →
//! EvalMod → SlotToCoeff with BSGS rotations and a Chebyshev-style sine
//! approximation). The one estimator is `cross_sched::cost_graph` over
//! a single `Bootstrap` node, which charges [`op_bundles`] on the
//! simulator's per-kernel latencies.

use crate::costs::{self, OpBundle};
use crate::params::CkksParams;

/// Phase-by-phase kernel counts of one packed bootstrapping.
#[derive(Debug, Clone, Default)]
pub struct BootstrapCounts {
    /// Rotations (BSGS over CoeffToSlot + SlotToCoeff).
    pub rotations: usize,
    /// Ciphertext-plaintext multiplies (diagonal matrices + poly eval).
    pub plain_mults: usize,
    /// Ciphertext-ciphertext multiplies (EvalMod polynomial).
    pub ct_mults: usize,
    /// Additions.
    pub additions: usize,
    /// Rescales.
    pub rescales: usize,
}

impl BootstrapCounts {
    /// Counts for the MAD-style packed bootstrapping \[3\] at `slots =
    /// N/2`: Coeff↔Slot as 3-level radix-decomposed BSGS linear
    /// transforms with rotation hoisting (each level costs
    /// `≈ 2·s^{1/3}`-rotations-worth after hoisting), and a degree-31
    /// Chebyshev sine approximation for EvalMod.
    pub fn packed(params: &CkksParams) -> Self {
        let slots = params.slot_count();
        let radix = (slots as f64).powf(1.0 / 3.0).ceil() as usize;
        let levels = 3usize;
        // CoeffToSlot + SlotToCoeff, hoisting folds the giant-step
        // rotations to ~half the naive count.
        let rot_linear = 2 * levels * radix;
        let pmult_linear = 2 * levels * radix;
        // EvalMod: degree-31 Chebyshev ≈ 2·log2(31) ct-mults + baby powers.
        let ct_mults = 12;
        let additions = pmult_linear + 3 * ct_mults;
        let rescales = levels * 2 + ct_mults;
        Self {
            rotations: rot_linear,
            plain_mults: pmult_linear,
            ct_mults,
            additions,
            rescales,
        }
    }
}

/// The per-op kernel bundles one packed bootstrapping charges, at the
/// average working level `l = max(L/2, 2)` (bootstrapping consumes
/// levels as it runs; the paper's per-kernel latencies are likewise
/// mid-pipeline profiles).
///
/// The `cross_sched` op-graph interpreter charges a `Bootstrap` node
/// as this list, and the 1-core/zero-link contract of
/// `tests/pod_model.rs` sums the same list on a lone `TpuSim`.
pub fn op_bundles(params: &CkksParams, counts: &BootstrapCounts) -> Vec<OpBundle> {
    let l = (params.limbs / 2).max(2);
    [
        ("bootstrap-rotate", &costs::ROTATE, counts.rotations),
        ("bootstrap-mult", &costs::HE_MULT, counts.ct_mults),
        ("bootstrap-pmult", &costs::PLAIN_MULT, counts.plain_mults),
        ("bootstrap-add", &costs::HE_ADD, counts.additions),
        ("bootstrap-rescale", &costs::RESCALE, counts.rescales),
    ]
    .into_iter()
    .map(|(name, spec, times)| OpBundle {
        times,
        ..spec.bundle(name, params, l, 1)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::ExecMode;
    use crate::params::ParamSet;
    use cross_tpu::topology::Topology;
    use cross_tpu::{Category, PodSim, TpuGeneration};

    /// One bootstrapping's seconds and busy-time breakdown on one
    /// tensor core: the bundle walk `cost_graph` runs, on a 1-core pod.
    fn one_core(gen: TpuGeneration, p: &CkksParams) -> (f64, Vec<(Category, f64)>) {
        let mut pod = PodSim::with_topology(gen, Topology::zero_cost(1));
        let bundles = op_bundles(p, &BootstrapCounts::packed(p));
        let rep = costs::charge_bundles_pod(Some(&mut pod), None, p, &bundles, ExecMode::Unfused);
        (rep.critical_s, costs::normalize_breakdown(rep.acc))
    }

    #[test]
    fn estimate_is_positive_and_ms_scale() {
        let p = ParamSet::D.params();
        let ms = one_core(TpuGeneration::V6e, &p).0 * 1e3;
        // Tab. IX: v6e-8 reports 21.5 ms amortized over 8 TCs → one TC
        // is O(100 ms); accept a broad band for the model.
        assert!(ms > 1.0 && ms < 5_000.0, "{ms}");
    }

    #[test]
    fn rotations_dominate_counts() {
        // Automorphism-heavy: Tab. IX attributes 35.6 % to automorphism.
        let p = ParamSet::D.params();
        let c = BootstrapCounts::packed(&p);
        assert!(c.rotations > c.ct_mults);
    }

    #[test]
    fn breakdown_includes_permutation() {
        let p = ParamSet::D.params();
        let (_, breakdown) = one_core(TpuGeneration::V6e, &p);
        let perm = breakdown
            .iter()
            .find(|(c, _)| *c == Category::Permutation)
            .map(|(_, f)| *f)
            .unwrap_or(0.0);
        assert!(perm > 0.05, "permutation share {perm}");
        let fractions: f64 = breakdown.iter().map(|(_, f)| f).sum();
        assert!((fractions - 1.0).abs() < 1e-9);
    }

    #[test]
    fn faster_generation_bootstraps_faster() {
        let p = ParamSet::B.params();
        assert!(one_core(TpuGeneration::V4, &p).0 > one_core(TpuGeneration::V6e, &p).0);
    }
}
