//! Whole-batch RNS execution: one compiled [`Ntt3Plan`] per limb
//! modulus, driving a [`PolyBatch`] through the MAT 3-step pipeline.
//!
//! This is the glue between `cross-poly`'s batch-major data layout and
//! the per-modulus compiled kernels of [`crate::mat`]: every limb gets
//! its own twiddle parameters (compiled offline, shared across calls),
//! and a transform of an `L`-limb batch of `B` polynomials runs `L`
//! fused matmul pipelines whose streamed dimension is `C·B` — the shape
//! the simulator charges and the paper's Fig. 11b sweeps. The CPU
//! *functional* paths run the host engine (the fastest
//! bit-identical executor); the compiled matmul reference remains the
//! per-limb `*_reference` methods on [`Ntt3Plan`].
//!
//! With `embed_bitrev = true` the plan layout **is** the radix-2
//! butterfly layout, so these transforms are bit-compatible with
//! [`PolyBatch::to_evaluation`] / [`cross_poly::RnsPoly::to_evaluation`]
//! — the equivalence the batched property tests assert.

use crate::mat::ntt3::{Ntt3Config, Ntt3Plan};
use crate::modred::ModRed;
use crate::plan;
use cross_poly::ring::Domain;
use cross_poly::rns_poly::RnsContext;
use cross_poly::PolyBatch;
use cross_tpu::TpuSim;

/// Per-limb compiled 3-step NTT plans over one RNS basis.
#[derive(Debug, Clone)]
pub struct RnsNttPlans {
    plans: Vec<Ntt3Plan>,
}

impl RnsNttPlans {
    /// Compiles one plan per limb modulus at factorization `(r, c)`.
    ///
    /// # Panics
    /// Panics if `r·c != ctx.n()` (propagated from [`Ntt3Plan::new`]).
    pub(crate) fn for_context(
        ctx: &RnsContext,
        r: usize,
        c: usize,
        modred: ModRed,
        embed_bitrev: bool,
    ) -> Self {
        let plans = ctx
            .tables()
            .iter()
            .map(|t| {
                Ntt3Plan::new(
                    t.clone(),
                    Ntt3Config {
                        r,
                        c,
                        modred,
                        embed_bitrev,
                    },
                )
            })
            .collect();
        Self { plans }
    }

    /// The §V-A standalone-NTT configuration (`R = 128` lanes, bitrev
    /// embedded so the layout matches the butterfly NTT exactly).
    pub fn standalone(ctx: &RnsContext, modred: ModRed) -> Self {
        let (r, c) = plan::standalone_ntt_rc(ctx.n());
        Self::for_context(ctx, r, c, modred, true)
    }

    fn check(&self, pb: &PolyBatch, want: Domain) {
        assert_eq!(pb.level_count(), self.plans.len(), "limb count mismatch");
        assert_eq!(pb.domain(), want, "domain mismatch");
        assert!(
            self.plans
                .iter()
                .all(|p| p.config().embed_bitrev && p.tables().n() == pb.context().n()),
            "plans must embed bitrev and match the batch degree"
        );
    }

    /// Forward-transforms a coefficient-domain batch to the evaluation
    /// domain, pure CPU. Since the `embed_bitrev` plan layout **is** the
    /// butterfly layout, the functional executor runs the host
    /// engine (`limb × batch` segments fanned over the `par` pool by
    /// [`PolyBatch::to_evaluation`]) — bit-identical to the compiled
    /// matmul reference, which stays available per limb as
    /// [`Ntt3Plan::forward_batch_reference`] for the cost model and the
    /// TPU paths.
    pub fn forward_batch(&self, pb: &PolyBatch) -> PolyBatch {
        self.check(pb, Domain::Coefficient);
        pb.in_domain(Domain::Evaluation).into_owned()
    }

    /// Inverse-transforms an evaluation-domain batch back to
    /// coefficients, pure CPU (host engine, like
    /// [`RnsNttPlans::forward_batch`]). Bit-identical to
    /// `Ntt3Plan::inverse_batch_reference` per limb.
    pub fn inverse_batch(&self, pb: &PolyBatch) -> PolyBatch {
        self.check(pb, Domain::Evaluation);
        pb.in_domain(Domain::Coefficient).into_owned()
    }

    /// Forward transform on the simulator: `L` fused batch kernels,
    /// each charging the `C·batch` streamed matmul shapes.
    pub fn forward_batch_on_tpu(&self, sim: &mut TpuSim, pb: &PolyBatch) -> PolyBatch {
        self.check(pb, Domain::Coefficient);
        let batch = pb.batch();
        let out = self
            .plans
            .iter()
            .zip(pb.limbs())
            .map(|(plan, limb)| plan.forward_batch_on_tpu(sim, limb, batch))
            .collect();
        PolyBatch::from_limbs(pb.context().clone(), out, Domain::Evaluation)
    }

    /// Inverse transform on the simulator.
    pub fn inverse_batch_on_tpu(&self, sim: &mut TpuSim, pb: &PolyBatch) -> PolyBatch {
        self.check(pb, Domain::Evaluation);
        let batch = pb.batch();
        let out = self
            .plans
            .iter()
            .zip(pb.limbs())
            .map(|(plan, limb)| plan.inverse_batch_on_tpu(sim, limb, batch))
            .collect();
        PolyBatch::from_limbs(pb.context().clone(), out, Domain::Coefficient)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_math::primes;
    use cross_poly::rns_poly::RnsPoly;
    use cross_tpu::TpuGeneration;
    use std::sync::Arc;

    fn setup(logn: u32, l: usize, batch: usize) -> (Arc<RnsContext>, PolyBatch) {
        let n = 1usize << logn;
        let moduli = primes::ntt_prime_chain(28, n as u64, l).unwrap();
        let ctx = Arc::new(RnsContext::new(n, moduli));
        let polys: Vec<RnsPoly> = (0..batch as i64)
            .map(|b| {
                let coeffs: Vec<i64> = (0..n as i64).map(|j| (j * 11 + b * 29) % 83 - 41).collect();
                RnsPoly::from_signed_coeffs(ctx.clone(), &coeffs)
            })
            .collect();
        (ctx, PolyBatch::from_polys(&polys))
    }

    #[test]
    fn matches_butterfly_to_evaluation() {
        let (ctx, pb) = setup(6, 3, 4);
        let plans = RnsNttPlans::standalone(&ctx, ModRed::Montgomery);
        let fwd = plans.forward_batch(&pb);
        let mut want = pb.clone();
        want.to_evaluation();
        assert_eq!(fwd.limbs(), want.limbs());
        assert_eq!(fwd.domain(), Domain::Evaluation);
        let back = plans.inverse_batch(&fwd);
        assert_eq!(back.limbs(), pb.limbs());
    }

    #[test]
    fn executor_matches_compiled_matmul_reference() {
        // The host-engine functional executor and the per-limb compiled
        // matmul reference must stay bit-identical limb by limb.
        let (ctx, pb) = setup(7, 3, 4);
        let plans = RnsNttPlans::standalone(&ctx, ModRed::Montgomery);
        let fwd = plans.forward_batch(&pb);
        for (i, plan) in plans.plans.iter().enumerate() {
            let want = plan.forward_batch_reference(&pb.limbs()[i], pb.batch());
            assert_eq!(fwd.limbs()[i], want, "limb {i}");
        }
        let back = plans.inverse_batch(&fwd);
        for (i, plan) in plans.plans.iter().enumerate() {
            let want = plan.inverse_batch_reference(&fwd.limbs()[i], pb.batch());
            assert_eq!(back.limbs()[i], want, "limb {i}");
        }
    }

    #[test]
    fn tpu_path_matches_reference() {
        let (ctx, pb) = setup(6, 2, 3);
        let plans = RnsNttPlans::for_context(&ctx, 8, 8, ModRed::Montgomery, true);
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let fwd = plans.forward_batch_on_tpu(&mut sim, &pb);
        assert_eq!(fwd.limbs(), plans.forward_batch(&pb).limbs());
        let back = plans.inverse_batch_on_tpu(&mut sim, &fwd);
        assert_eq!(back.limbs(), pb.limbs());
        assert!(sim.compute_seconds() > 0.0);
    }

    #[test]
    fn charge_matches_functional_compute() {
        let (ctx, pb) = setup(6, 2, 4);
        let plans = RnsNttPlans::for_context(&ctx, 8, 8, ModRed::Montgomery, true);
        let mut s_fn = TpuSim::new(TpuGeneration::V6e);
        let _ = plans.forward_batch_on_tpu(&mut s_fn, &pb);
        let mut s_ch = TpuSim::new(TpuGeneration::V6e);
        for plan in &plans.plans {
            plan.charge_forward_batch(&mut s_ch, pb.batch());
        }
        // The charge model adds DMA/spill accounting on top of the same
        // compute shapes; compute seconds must agree exactly.
        let d = (s_fn.compute_seconds() - s_ch.compute_seconds()).abs();
        assert!(d < 1e-12, "compute mismatch {d}");
    }
}
