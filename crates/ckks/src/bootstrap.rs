//! Packed-bootstrapping cost estimator (paper §V-E, Tab. IX).
//!
//! The paper estimates bootstrapping "by multiplying the overall number
//! of HE kernel invocations with each profiled realistic latency …
//! worst case, assuming no pipeline or fusion" (§V-A). This module
//! applies the identical methodology: kernel counts follow the packed
//! bootstrapping structure of MAD \[3\] (ModRaise → CoeffToSlot →
//! EvalMod → SlotToCoeff with BSGS rotations and a Chebyshev-style sine
//! approximation), multiplied by the simulator's per-kernel latencies.

use crate::costs::{self, ExecMode, OpBundle};
use crate::params::CkksParams;
use cross_tpu::{Category, PodSim, TpuSim};

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

/// Latency estimate and category breakdown for one bootstrapping.
#[derive(Debug, Clone)]
pub struct BootstrapEstimate {
    /// Total latency (seconds, one tensor core).
    pub latency_s: f64,
    /// Category breakdown fractions (Tab. IX row).
    pub breakdown: Vec<(Category, f64)>,
    /// The kernel counts used.
    pub counts: BootstrapCounts,
}

impl BootstrapEstimate {
    /// Latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_s * 1e3
    }
}

/// The per-op kernel bundles one packed bootstrapping charges, at the
/// average working level `l = max(L/2, 2)` (bootstrapping consumes
/// levels as it runs; the paper's per-kernel latencies are likewise
/// mid-pipeline profiles).
///
/// [`estimate`], [`estimate_pod`] and the `cross_sched` op-graph
/// interpreter's `Bootstrap` node all iterate this one list, so their
/// charge sequences cannot diverge — which is what the
/// 1-core/zero-link bit-identity contract of `tests/pod_model.rs` and
/// the `cost_graph`-exactness contract of `tests/sched_model.rs` rely
/// on.
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

/// Estimates packed bootstrapping on one tensor core of `sim`'s
/// generation, at an average working level of `params.limbs / 2`.
pub fn estimate(sim: &mut TpuSim, params: &CkksParams) -> BootstrapEstimate {
    let counts = BootstrapCounts::packed(params);
    sim.reset();

    let mut total = 0.0;
    let mut acc: std::collections::BTreeMap<Category, f64> = Default::default();
    for b in op_bundles(params, &counts) {
        if b.times == 0 {
            continue;
        }
        let rep = costs::charge_op_mode(sim, params, &b, ExecMode::Unfused);
        for (cat, s) in &rep.breakdown {
            *acc.entry(*cat).or_insert(0.0) += s * b.times as f64;
        }
        total += rep.latency_s * b.times as f64;
    }

    BootstrapEstimate {
        latency_s: total,
        breakdown: costs::normalize_breakdown(acc),
        counts,
    }
}

/// Pod-level bootstrapping estimate: critical-path latency with
/// limb-parallel sharding plus the batch-parallel amortized figure.
#[derive(Debug, Clone)]
pub struct PodBootstrapEstimate {
    /// Limb-parallel critical-path estimate (one bootstrapping as fast
    /// as the pod can run it; communication included in the breakdown
    /// under the ICI/DCN categories).
    pub critical: BootstrapEstimate,
    /// Amortized seconds per bootstrapping when every core runs an
    /// independent one (throughput serving): pod wall clock divided by
    /// bootstrappings completed — sublinear in cores because the
    /// switching-key broadcasts ride the interconnect.
    pub amortized_s: f64,
}

impl PodBootstrapEstimate {
    /// Amortized latency in milliseconds.
    pub fn amortized_ms(&self) -> f64 {
        self.amortized_s * 1e3
    }
}

/// Estimates packed bootstrapping on a multi-core pod, sharding each
/// HE kernel limb-parallel across the cores ([`costs::charge_op_pod`])
/// and charging the interconnect explicitly. With a 1-core zero-link
/// pod the critical estimate is bit-identical to [`estimate`].
pub fn estimate_pod(pod: &mut PodSim, params: &CkksParams) -> PodBootstrapEstimate {
    let counts = BootstrapCounts::packed(params);
    pod.reset();

    // The amortized estimates charge onto a cloned pod; see
    // `costs::charge_bundles_pod` for why the critical-path pod must
    // stay undisturbed (bit-identity with `estimate`).
    let mut amortized_pod = pod.clone();
    let bundles = op_bundles(params, &counts);
    let br = costs::charge_bundles_pod(
        Some(pod),
        Some(&mut amortized_pod),
        params,
        &bundles,
        ExecMode::Unfused,
    );

    PodBootstrapEstimate {
        critical: BootstrapEstimate {
            latency_s: br.critical_s,
            breakdown: costs::normalize_breakdown(br.acc),
            counts,
        },
        amortized_s: br.amortized_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use cross_tpu::TpuGeneration;

    #[test]
    fn estimate_is_positive_and_ms_scale() {
        let p = ParamSet::D.params();
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let est = estimate(&mut sim, &p);
        // Tab. IX: v6e-8 reports 21.5 ms amortized over 8 TCs → one TC
        // is O(100 ms); accept a broad band for the model.
        assert!(
            est.latency_ms() > 1.0 && est.latency_ms() < 5_000.0,
            "{}",
            est.latency_ms()
        );
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
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let est = estimate(&mut sim, &p);
        let perm = est
            .breakdown
            .iter()
            .find(|(c, _)| *c == Category::Permutation)
            .map(|(_, f)| *f)
            .unwrap_or(0.0);
        assert!(perm > 0.05, "permutation share {perm}");
        let fractions: f64 = est.breakdown.iter().map(|(_, f)| f).sum();
        assert!((fractions - 1.0).abs() < 1e-9);
    }

    #[test]
    fn faster_generation_bootstraps_faster() {
        let p = ParamSet::B.params();
        let mut s4 = TpuSim::new(TpuGeneration::V4);
        let mut s6 = TpuSim::new(TpuGeneration::V6e);
        let e4 = estimate(&mut s4, &p);
        let e6 = estimate(&mut s6, &p);
        assert!(e4.latency_s > e6.latency_s);
    }
}
