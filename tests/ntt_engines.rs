//! Equivalence properties for the host NTT.
//!
//! The contract that lets `host_ntt::{forward,inverse}_inplace` be the
//! functional transform: they are **bit-identical** to the radix-2
//! butterflies (`ntt::{forward,inverse}_inplace`, same bit-reversed
//! output) and to the `O(N²)` oracle `ntt::naive_forward` (natural
//! output, compared through the bit-reversal permutation) — across
//! sizes (one 64-point body, and one to five leading passes ahead of
//! the blocked tail), prime widths, and `PolyBatch` batch shapes on
//! both sides of the parallel threshold. The RNS executor built on it
//! must in turn match the compiled TPU path on every generation.

use cross::core::modred::ModRed;
use cross::core::plan::standalone_ntt_rc;
use cross::core::{Ntt3Config, Ntt3Plan};
use cross::math::bitrev::bit_reverse_in_place;
use cross::math::primes;
use cross::poly::ring::Domain;
use cross::poly::rns_poly::{RnsContext, RnsPoly};
use cross::poly::{host_ntt, ntt, NttTables, PolyBatch};
use cross::tpu::{TpuGeneration, TpuSim};
use proptest::prelude::*;
use std::sync::Arc;

fn tables(logn: u32, bits: u32) -> Arc<NttTables> {
    let n = 1usize << logn;
    Arc::new(NttTables::new(
        n,
        primes::ntt_prime(bits, n as u64, 0).unwrap(),
    ))
}

fn residues(len: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 16) % q
        })
        .collect()
}

/// `transform` applied to a copy of `a`.
fn run(transform: fn(&mut [u64], &NttTables), a: &[u64], t: &NttTables) -> Vec<u64> {
    let mut x = a.to_vec();
    transform(&mut x, t);
    x
}

/// The polynomials stored back to back in `a` as a one-limb batch over
/// `t` — the shape whose domain conversions fan out per polynomial.
fn one_limb_batch(t: &Arc<NttTables>, a: &[u64]) -> PolyBatch {
    let ctx = Arc::new(RnsContext::with_tables(t.n(), vec![t.clone()]));
    PolyBatch::from_limbs(ctx, vec![a.to_vec()], Domain::Coefficient)
}

/// Deterministic sweep: every size from the single 64-point body up
/// at every prime width matches the radix-2 butterflies bit for bit,
/// forward and roundtrip.
#[test]
fn host_matches_radix2_all_sizes_and_primes() {
    for bits in [20u32, 26, 28, 30] {
        for logn in 6..=11u32 {
            let t = tables(logn, bits);
            let a = residues(t.n(), t.q(), (u64::from(bits) << 32) | u64::from(logn));
            let fwd = run(host_ntt::forward_inplace, &a, &t);
            assert_eq!(
                fwd,
                run(ntt::forward_inplace, &a, &t),
                "forward bits={bits} logn={logn}"
            );
            assert_eq!(
                run(host_ntt::inverse_inplace, &fwd, &t),
                a,
                "roundtrip bits={bits} logn={logn}"
            );
            assert_eq!(
                run(ntt::inverse_inplace, &fwd, &t),
                a,
                "cross-engine roundtrip bits={bits} logn={logn}"
            );
        }
    }
}

/// The naive `O(N²)` oracle in natural order, bit-reversed, equals the
/// host engine's output (kept to small degrees: the oracle is quadratic and
/// this runs in debug).
#[test]
fn host_matches_naive_oracle() {
    for logn in 6..=8u32 {
        let t = tables(logn, 28);
        let a = residues(t.n(), t.q(), 0x5EED ^ u64::from(logn));
        let mut want = ntt::naive_forward(&a, &t);
        bit_reverse_in_place(&mut want);
        assert_eq!(run(host_ntt::forward_inplace, &a, &t), want, "logn={logn}");
    }
}

/// Batched transforms cross the parallel-dispatch threshold without
/// changing a single bit: the `PolyBatch` fan-out must equal the
/// sequential loop on both sides. It fans out at two workers' worth of
/// `par::MIN_PAR_WORK` in `log₂N · batch·N` butterfly work, which only
/// the last shape reaches.
#[test]
fn host_batch_crosses_parallel_threshold() {
    for (logn, batch) in [(6u32, 3usize), (8, 8), (11, 8), (12, 8)] {
        let t = tables(logn, 28);
        let n = t.n();
        let a = residues(batch * n, t.q(), u64::from(logn) * 131 + batch as u64);
        let mut pb = one_limb_batch(&t, &a);
        pb.to_evaluation();
        let looped: Vec<u64> = a
            .chunks(n)
            .flat_map(|p| run(host_ntt::forward_inplace, p, &t))
            .collect();
        assert_eq!(pb.limbs()[0], looped, "forward logn={logn} batch={batch}");
        pb.to_coefficient();
        assert_eq!(pb.limbs()[0], a, "roundtrip logn={logn} batch={batch}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn host_equivalence_random(
        seed in any::<u64>(),
        logn in 6u32..=10,
        bits_idx in 0usize..4,
    ) {
        let bits = [20u32, 26, 28, 30][bits_idx];
        let t = tables(logn, bits);
        let a = residues(t.n(), t.q(), seed);
        let fwd = run(host_ntt::forward_inplace, &a, &t);
        prop_assert_eq!(&fwd, &run(ntt::forward_inplace, &a, &t));
        prop_assert_eq!(&run(host_ntt::inverse_inplace, &fwd, &t), &a);
    }

    #[test]
    fn host_batch_equivalence_random(
        seed in any::<u64>(),
        logn in 6u32..=9,
        batch_idx in 0usize..3,
    ) {
        let batch = [1usize, 3, 8][batch_idx];
        let t = tables(logn, 28);
        let n = t.n();
        let a = residues(batch * n, t.q(), seed);
        let mut pb = one_limb_batch(&t, &a);
        pb.to_evaluation();
        let looped: Vec<u64> = a
            .chunks(n)
            .flat_map(|p| run(host_ntt::forward_inplace, p, &t))
            .collect();
        prop_assert_eq!(&pb.limbs()[0], &looped);
        pb.to_coefficient();
        prop_assert_eq!(&pb.limbs()[0], &a);
    }

    /// The host engine behind `PolyBatch::to_evaluation` matches the
    /// compiled matmul kernels on the simulator — one bitrev-embedded
    /// `Ntt3Plan` per limb — for every TPU generation and its own prime
    /// chain: the MAT layout is the host layout across an RNS batch.
    #[test]
    fn rns_executor_matches_tpu_path_all_generations(
        seed in any::<u64>(),
        batch in 1usize..4,
    ) {
        let n = 1usize << 7;
        let moduli = primes::ntt_prime_chain(28, n as u64, 3).unwrap();
        let ctx = Arc::new(RnsContext::new(n, moduli));
        let polys: Vec<RnsPoly> = (0..batch)
            .map(|b| {
                let limbs: Vec<Vec<u64>> = ctx
                    .moduli()
                    .iter()
                    .map(|&q| residues(n, q, seed.wrapping_add(b as u64 * 31)))
                    .collect();
                RnsPoly::from_limbs(ctx.clone(), limbs, Domain::Coefficient)
            })
            .collect();
        let pb = PolyBatch::from_polys(&polys);
        let mut fwd = pb.clone();
        fwd.to_evaluation();
        let (r, c) = standalone_ntt_rc(n);
        let config = Ntt3Config { r, c, modred: ModRed::Montgomery, embed_bitrev: true };
        let plans: Vec<Ntt3Plan> =
            ctx.tables().iter().map(|t| Ntt3Plan::new(t.clone(), config)).collect();
        for gen in TpuGeneration::ALL {
            let mut sim = TpuSim::new(gen);
            for (i, plan) in plans.iter().enumerate() {
                let tpu = plan.forward_batch_on_tpu(&mut sim, &pb.limbs()[i], batch);
                prop_assert_eq!(&tpu, &fwd.limbs()[i], "forward {:?} limb {}", gen, i);
                let back = plan.inverse_batch_on_tpu(&mut sim, &tpu, batch);
                prop_assert_eq!(&back, &pb.limbs()[i], "roundtrip {:?} limb {}", gen, i);
            }
        }
        fwd.to_coefficient();
        prop_assert_eq!(fwd.limbs(), pb.limbs());
    }
}
