//! Bailey six-step NTT — the default *functional* (host CPU) engine.
//!
//! With `N = R·C` (`R = 2^⌊log N/2⌋`, the balanced split), the forward
//! negacyclic transform factors into
//!
//! 1. transpose `R×C → C×R` (columns become cache-contiguous rows),
//! 2. `C` independent `R`-point **negacyclic** NTTs with `ψ_R = ψ^C`
//!    ([`crate::small_ntt`] lazy Cooley–Tukey base cases),
//! 3. transpose back `C×R → R×C`,
//! 4. fused per-row twiddle `ψ^{(2·bitrev_R(i)+1)·c}` (one Shoup
//!    multiply that doubles as the lazy-value normalizer), and
//! 5. `R` independent `C`-point **cyclic** DFTs with `ω_C = ψ^{2R}`
//!    in the same pass over each cache-hot row.
//!
//! Because both stages use natural-in → bit-reversed-out butterflies
//! and `bitrev_N(k₁ + k₂R) = bitrev_R(k₁)·C + bitrev_C(k₂)`, the
//! flattened result **is** the full-`N` bit-reversed order — bit-for-bit
//! the output of [`crate::ntt::forward_inplace`], with the classic
//! six-step's final transpose eliminated. That makes the engine a
//! transparent drop-in for every evaluation-domain consumer in the
//! stack; [`forward_inplace`]/[`inverse_inplace`] here auto-dispatch
//! between it and the radix-2 loop by size, and everything stays
//! bit-identical either way. The win is arithmetic and locality: Shoup
//! multiplies instead of `u128 %` butterflies, and row passes that
//! never stride by more than `max(R, C)`.

use crate::engines::{NttEngine, OutputOrder};
use crate::ntt;
use crate::small_ntt::{self, CyclicNttTables, ShoupPairs, SmallNttTables};
use crate::tables::NttTables;
use crate::transpose::transpose_inplace;
use cross_math::bitrev::bit_reverse;
use cross_math::modops::{inv_mod, mul_mod};
use cross_math::par;
use std::sync::Arc;

/// Degrees below this stay on the plain radix-2 loop in the
/// [`forward_inplace`]/[`inverse_inplace`] auto-dispatch: the split
/// bookkeeping only pays for itself once rows are long enough to
/// amortize the transposes. Results are bit-identical either way.
pub const SIX_STEP_MIN_N: usize = 64;

/// The balanced `N = R·C` split (`R ≤ C ≤ 2R`).
pub fn balanced_split(n: usize) -> (usize, usize) {
    debug_assert!(n.is_power_of_two());
    let r = 1usize << (n.trailing_zeros() / 2);
    (r, n / r)
}

/// Forward negacyclic NTT through the default host engine: the cached
/// six-step plan at or above [`SIX_STEP_MIN_N`], the radix-2 butterfly
/// loop below it. Bit-identical to [`crate::ntt::forward_inplace`]
/// (natural input → bit-reversed output) in all cases.
///
/// # Panics
/// Panics if `a.len() != tables.n()`.
pub fn forward_inplace(a: &mut [u64], tables: &NttTables) {
    if tables.n() >= SIX_STEP_MIN_N {
        tables.six_step_plan().forward_inplace(a);
    } else {
        ntt::forward_inplace(a, tables);
    }
}

/// Inverse negacyclic NTT through the default host engine
/// (bit-reversed input → natural output, includes `N⁻¹`).
/// Bit-identical to [`crate::ntt::inverse_inplace`].
///
/// # Panics
/// Panics if `a.len() != tables.n()`.
pub fn inverse_inplace(a: &mut [u64], tables: &NttTables) {
    if tables.n() >= SIX_STEP_MIN_N {
        tables.six_step_plan().inverse_inplace(a);
    } else {
        ntt::inverse_inplace(a, tables);
    }
}

/// Precomputed six-step material for one `(N, q)` pair: base-case
/// tables for both stages plus the fused `R×C` Shoup twiddle matrices.
/// Cached on [`NttTables`] (built once per modulus, shared by every
/// context that holds the tables).
#[derive(Debug, Clone)]
pub struct SixStepPlan {
    n: usize,
    q: u64,
    r: usize,
    c: usize,
    /// Negacyclic `R`-point stage, root `ψ_R = ψ^C`.
    row_stage: SmallNttTables,
    /// Cyclic `C`-point stage, root `ω_C = ψ^{2R}`.
    col_stage: CyclicNttTables,
    /// Fused forward twiddles, row-major `R×C`:
    /// `tw[i·C + c] = ψ^{(2·bitrev_R(i)+1)·c}`.
    tw: ShoupPairs,
    /// Fused inverse twiddles with the cyclic stage's `C⁻¹` folded in:
    /// `tw_inv[i·C + c] = C⁻¹·ψ^{-(2·bitrev_R(i)+1)·c}`.
    tw_inv: ShoupPairs,
}

impl SixStepPlan {
    /// Builds the plan for `tables`' degree and modulus.
    ///
    /// # Panics
    /// Panics if `q ≥ 2³²` (the Shoup base-case bound; all CROSS
    /// primes are 32-bit).
    pub fn new(tables: &NttTables) -> Self {
        let n = tables.n();
        let q = tables.q();
        let (r, c) = balanced_split(n);
        let row_stage = SmallNttTables::new(r, q, tables.psi_power(c as u64));
        let col_stage = CyclicNttTables::new(c, q, tables.psi_power(2 * r as u64));
        let rbits = r.trailing_zeros();
        let two_n = 2 * n as u64;
        let c_inv = inv_mod(c as u64, q).expect("C invertible mod prime q");
        let mut tw = ShoupPairs::with_capacity(n);
        let mut tw_inv = ShoupPairs::with_capacity(n);
        for i in 0..r {
            let k1 = bit_reverse(i, rbits) as u64;
            for cc in 0..c as u64 {
                let e = (2 * k1 + 1) * cc % two_n;
                tw.push(tables.psi_power(e), q);
                tw_inv.push(mul_mod(c_inv, tables.psi_inv_power(e), q), q);
            }
        }
        Self {
            n,
            q,
            r,
            c,
            row_stage,
            col_stage,
            tw,
            tw_inv,
        }
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `(R, C)` split.
    pub fn split(&self) -> (usize, usize) {
        (self.r, self.c)
    }

    /// In-place forward transform, natural → bit-reversed, bit-identical
    /// to [`crate::ntt::forward_inplace`].
    ///
    /// # Panics
    /// Panics if `a.len() != N`.
    pub fn forward_inplace(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal the ring degree");
        let (r, c, q) = (self.r, self.c, self.q);
        // 1–2: columns → contiguous rows, then R-point negacyclic NTTs
        // (outputs lazy < 4q).
        transpose_inplace(a, r, c);
        for row in a.chunks_exact_mut(r) {
            small_ntt::negacyclic_forward_lazy(row, &self.row_stage);
        }
        // 3: back to R×C; memory row i now holds stage-one outputs for
        // logical index k₁ = bitrev_R(i).
        transpose_inplace(a, c, r);
        // 4–5: per cache-hot row, fused twiddle (also folds 4q → 2q),
        // cyclic C-point DFT, and the final strict reduction.
        for (i, row) in a.chunks_exact_mut(c).enumerate() {
            self.tw.mul_lazy_slice(i * c, row, q);
            small_ntt::cyclic_forward_lazy(row, &self.col_stage);
            small_ntt::reduce_strict_slice(row, q);
        }
    }

    /// In-place inverse transform, bit-reversed → natural (includes
    /// `N⁻¹`), bit-identical to [`crate::ntt::inverse_inplace`].
    ///
    /// # Panics
    /// Panics if `a.len() != N`.
    pub fn inverse_inplace(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal the ring degree");
        let (r, c, q) = (self.r, self.c, self.q);
        // 1: per row, unnormalized inverse cyclic DFT (lazy < 4q) and
        // fused untwiddle (C⁻¹ folded in; normalizes to < 2q).
        for (i, row) in a.chunks_exact_mut(c).enumerate() {
            small_ntt::cyclic_inverse_lazy(row, &self.col_stage);
            self.tw_inv.mul_lazy_slice(i * c, row, q);
        }
        // 2: rows → columns.
        transpose_inplace(a, r, c);
        // 3: R-point inverse negacyclic NTTs (include R⁻¹; strict out).
        for row in a.chunks_exact_mut(r) {
            small_ntt::negacyclic_inverse(row, &self.row_stage);
        }
        // 4: back to natural coefficient order.
        transpose_inplace(a, c, r);
    }

    /// Runs `f` on each of the `batch` polynomials stored back-to-back
    /// in `a`, fanned out across the batch on as many scoped workers as
    /// `log₂N` butterfly layers over `batch · N` residues pay for.
    fn for_each_poly(&self, a: &mut [u64], batch: usize, f: impl Fn(&mut [u64]) + Sync) {
        assert_eq!(a.len(), batch * self.n, "batch shape mismatch");
        let work = a.len() * self.n.trailing_zeros() as usize;
        let mut polys: Vec<&mut [u64]> = a.chunks_exact_mut(self.n).collect();
        par::par_for_each_sized(&mut polys, work, |_, p| f(p));
    }

    /// Forward-transforms `batch` polynomials stored back-to-back.
    ///
    /// # Panics
    /// Panics if `a.len() != batch · N`.
    pub fn forward_batch_inplace(&self, a: &mut [u64], batch: usize) {
        self.for_each_poly(a, batch, |p| self.forward_inplace(p));
    }

    /// Inverse counterpart of [`SixStepPlan::forward_batch_inplace`].
    ///
    /// # Panics
    /// Panics if `a.len() != batch · N`.
    pub fn inverse_batch_inplace(&self, a: &mut [u64], batch: usize) {
        self.for_each_poly(a, batch, |p| self.inverse_inplace(p));
    }
}

/// The six-step engine behind the [`NttEngine`] trait — same
/// bit-reversed output contract as [`crate::engines::CooleyTukeyNtt`],
/// so the two are interchangeable value-for-value.
#[derive(Debug, Clone)]
pub struct SixStepNtt {
    tables: Arc<NttTables>,
    plan: Arc<SixStepPlan>,
}

impl SixStepNtt {
    /// Builds the engine over shared tables (reuses the plan cached on
    /// the tables, building it on first use).
    pub fn new(tables: Arc<NttTables>) -> Self {
        let plan = tables.six_step_plan().clone();
        Self { tables, plan }
    }

    /// The underlying plan (split sizes, for reporting).
    pub fn plan(&self) -> &SixStepPlan {
        &self.plan
    }
}

impl NttEngine for SixStepNtt {
    fn name(&self) -> &'static str {
        "six-step"
    }

    fn output_order(&self) -> OutputOrder {
        OutputOrder::BitReversed
    }

    fn tables(&self) -> &NttTables {
        &self.tables
    }

    fn forward(&self, a: &[u64]) -> Vec<u64> {
        let mut out = a.to_vec();
        self.plan.forward_inplace(&mut out);
        out
    }

    fn inverse(&self, a: &[u64]) -> Vec<u64> {
        let mut out = a.to_vec();
        self.plan.inverse_inplace(&mut out);
        out
    }

    fn forward_batch(&self, a: &[u64], batch: usize) -> Vec<u64> {
        let mut out = a.to_vec();
        self.plan.forward_batch_inplace(&mut out, batch);
        out
    }

    fn inverse_batch(&self, a: &[u64], batch: usize) -> Vec<u64> {
        let mut out = a.to_vec();
        self.plan.inverse_batch_inplace(&mut out, batch);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_math::primes;

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

    #[test]
    fn balanced_split_shapes() {
        assert_eq!(balanced_split(1 << 12), (64, 64));
        assert_eq!(balanced_split(1 << 13), (64, 128));
        assert_eq!(balanced_split(16), (4, 4));
        assert_eq!(balanced_split(2), (1, 2));
    }

    #[test]
    fn plan_bit_identical_to_butterflies_every_size() {
        // Includes sizes below SIX_STEP_MIN_N (plan still works there;
        // the dispatcher just prefers radix-2) and odd-log degrees that
        // exercise the rectangular GW18 transposes.
        for bits in [20u32, 28, 30] {
            for logn in 1..=11u32 {
                let t = tables(logn, bits);
                let plan = SixStepPlan::new(&t);
                let a = residues(t.n(), t.q(), logn as u64 + 1);
                let mut got = a.clone();
                plan.forward_inplace(&mut got);
                let mut want = a.clone();
                ntt::forward_inplace(&mut want, &t);
                assert_eq!(got, want, "forward bits={bits} logn={logn}");
                let mut back = got;
                plan.inverse_inplace(&mut back);
                let mut back_ref = want;
                ntt::inverse_inplace(&mut back_ref, &t);
                assert_eq!(back, back_ref, "inverse bits={bits} logn={logn}");
                assert_eq!(back, a, "roundtrip bits={bits} logn={logn}");
            }
        }
    }

    #[test]
    fn batch_matches_loop_and_parallel_threshold() {
        // 2^13 × 10 residues × 13 layers is two workers' worth under
        // the fan-out gate; the smaller shapes stay serial.
        for (logn, batch) in [(6u32, 1usize), (6, 3), (9, 8), (11, 8), (13, 10)] {
            let t = tables(logn, 28);
            let plan = SixStepPlan::new(&t);
            let a = residues(batch * t.n(), t.q(), 42);
            let mut fused = a.clone();
            plan.forward_batch_inplace(&mut fused, batch);
            let looped: Vec<u64> = a
                .chunks(t.n())
                .flat_map(|p| {
                    let mut x = p.to_vec();
                    plan.forward_inplace(&mut x);
                    x
                })
                .collect();
            assert_eq!(fused, looped, "logn={logn} batch={batch}");
            let mut back = fused;
            plan.inverse_batch_inplace(&mut back, batch);
            assert_eq!(back, a, "roundtrip logn={logn} batch={batch}");
        }
    }

    #[test]
    fn dispatcher_is_transparent() {
        // One degree on each side of SIX_STEP_MIN_N: whichever engine
        // the dispatcher picks, values match the radix-2 loop.
        for logn in [4u32, 8] {
            let t = tables(logn, 28);
            let a = residues(t.n(), t.q(), 9);
            let mut six = a.clone();
            forward_inplace(&mut six, &t);
            let mut r2 = a.clone();
            ntt::forward_inplace(&mut r2, &t);
            assert_eq!(six, r2, "dispatch must not change values");
            let mut back = six;
            inverse_inplace(&mut back, &t);
            ntt::inverse_inplace(&mut r2, &t);
            assert_eq!(back, r2);
            assert_eq!(back, a);
        }
    }

    #[test]
    fn engine_trait_roundtrip() {
        let t = tables(7, 28);
        let e = SixStepNtt::new(t.clone());
        assert_eq!(e.output_order(), OutputOrder::BitReversed);
        assert_eq!(e.plan().split(), (8, 16));
        let a = residues(3 * t.n(), t.q(), 5);
        let fused = e.forward_batch(&a, 3);
        let looped: Vec<u64> = a.chunks(t.n()).flat_map(|p| e.forward(p)).collect();
        assert_eq!(fused, looped);
        assert_eq!(e.inverse_batch(&fused, 3), a);
    }
}
