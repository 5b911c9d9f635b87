//! `(R, C)` factorization planning (paper §V-A "CROSS Configuration").
//!
//! CROSS sweeps `(R,C) ∈ {(128,512), (256,256), (512,128)}`-style
//! factorizations for HE operators and pins `R = 128` (the lane count)
//! for standalone NTT throughput runs. This module picks the candidate
//! with the lowest charged latency on a given generation.

use crate::mat::ntt3::{Ntt3Config, Ntt3Plan};
use crate::modred::ModRed;
use cross_poly::NttTables;
use cross_tpu::{TpuGeneration, TpuSim};
use std::sync::Arc;

/// The balanced square-ish `(R, C)` split — the fallback factorization
/// for degrees too small for the paper's lane-width candidates.
///
/// # Panics
/// Panics if `n` is not a power of two.
pub fn balanced_rc(n: usize) -> (usize, usize) {
    assert!(n.is_power_of_two());
    let logn = n.trailing_zeros();
    let r = 1usize << (logn / 2);
    (r, n / r)
}

/// Candidate `(R, C)` factorizations for degree `n`, per §V-A.
pub fn rc_candidates(n: usize) -> Vec<(usize, usize)> {
    assert!(n.is_power_of_two());
    let mut out = Vec::new();
    for r in [128usize, 256, 512] {
        if r <= n && n.is_multiple_of(r) {
            let c = n / r;
            if c >= 2 {
                out.push((r, c));
            }
        }
    }
    if out.is_empty() {
        out.push(balanced_rc(n));
    }
    out
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

/// Sweeps the candidates and returns the plan with the lowest charged
/// batched-forward latency on `gen` (the paper's per-operator sweep).
pub fn best_plan(
    tables: Arc<NttTables>,
    gen: TpuGeneration,
    modred: ModRed,
    batch: usize,
) -> Ntt3Plan {
    let n = tables.n();
    let mut best: Option<(f64, Ntt3Plan)> = None;
    for (r, c) in rc_candidates(n) {
        let plan = Ntt3Plan::new(
            tables.clone(),
            Ntt3Config {
                r,
                c,
                modred,
                embed_bitrev: true,
            },
        );
        let mut sim = TpuSim::new(gen);
        sim.begin_kernel("sweep");
        plan.charge_forward_batch(&mut sim, batch);
        let lat = sim.end_kernel().latency_s;
        match &best {
            Some((b, _)) if *b <= lat => {}
            _ => best = Some((lat, plan)),
        }
    }
    best.expect("at least one candidate").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_math::primes;

    #[test]
    fn candidates_multiply_to_n() {
        for logn in [12u32, 13, 14, 16] {
            let n = 1usize << logn;
            let cands = rc_candidates(n);
            assert!(!cands.is_empty());
            for (r, c) in cands {
                assert_eq!(r * c, n);
            }
        }
    }

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
        // The small-degree fallback of both entry points is the same split.
        assert_eq!(rc_candidates(1 << 6), vec![balanced_rc(1 << 6)]);
        assert_eq!(standalone_ntt_rc(1 << 6), balanced_rc(1 << 6));
    }

    #[test]
    fn sweep_returns_valid_plan() {
        let n = 1usize << 10;
        let q = primes::ntt_prime(28, n as u64, 0).unwrap();
        let tables = Arc::new(cross_poly::NttTables::new(n, q));
        let plan = best_plan(tables, TpuGeneration::V6e, ModRed::Montgomery, 1);
        let cfg = plan.config();
        assert_eq!(cfg.r * cfg.c, n);
    }
}
