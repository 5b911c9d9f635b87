//! RNS ("double-CRT") polynomials, one or a batch at a time — the one
//! polynomial container of the stack.
//!
//! A [`PolyBatch`] holds `batch` polynomials over one shared
//! [`RnsContext`] in *struct-of-limbs, batch-major* layout: limb `i` is
//! a single contiguous vector of `batch · N` residues, polynomial `b`'s
//! degree-`N` segment at `[b·N .. (b+1)·N]`. The paper treats batch as
//! just the streamed matmul dimension (Fig. 11b, §V-A), so a single
//! post-CRT ciphertext polynomial (§II-A3) is the `batch = 1` point on
//! that axis, not a different type: [`RnsPoly`] is an alias that spells
//! "batch of one" in signatures. Two consequences of the layout:
//!
//! * every element-wise HE kernel (VecModMul/Add, scalar ops) runs once
//!   over the whole limb instead of `batch` times — the layout the MXU
//!   batching of `cross-core` streams directly;
//! * the limb × batch loop nest is embarrassingly parallel, so kernels
//!   fan out over [`cross_math::par`]'s pool once the work pays for
//!   the dispatch.
//!
//! Batch entries never interact: a batch-`B` result is bit-identical to
//! the `B` batch-of-one results laid side by side — the property the
//! batched-vs-sequential tests pin down.
//!
//! Limbs are drawn from the context's [`LimbPool`] and given back to it
//! when a batch is dropped: every kernel here that makes a limb fills a
//! recycled buffer, zero-filling it explicitly where it accumulates, so
//! a steady stream of operators stops freeing and re-faulting its
//! working set. Batches of more than one polynomial have limbs longer
//! than `N`, which bypass the pool.
//!
//! [`LimbPool`]: crate::LimbPool

use crate::host_ntt;
use crate::ring::Domain;
use crate::rns_poly::{RnsContext, RnsPoly};
use cross_math::modops::{
    add_mod, barrett_mu, from_signed, mul_mod, mul_mod_barrett32, neg_mod, reduce_barrett, sub_mod,
};
use cross_math::par;
use std::borrow::Cow;
use std::sync::Arc;

/// One segment of a limb-wise product — the HE `VecModMul` inner loop.
/// For moduli below 2³² the per-element division is replaced by a
/// Barrett reduction against `⌊2⁶⁴/q⌋` — bit-identical to [`mul_mod`]
/// and the dominant win on tensor products, where both operands vary
/// and Shoup precomputation cannot apply.
fn mul_segment(q: u64, a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    if q >> 32 == 0 {
        let mu = barrett_mu(q);
        out.extend(
            a.iter()
                .zip(b)
                .map(|(&x, &y)| mul_mod_barrett32(x, y, q, mu)),
        );
    } else {
        out.extend(a.iter().zip(b).map(|(&x, &y)| mul_mod(x, y, q)));
    }
}

/// A batch of RNS polynomials in struct-of-limbs, batch-major layout.
#[derive(Debug)]
pub struct PolyBatch {
    ctx: Arc<RnsContext>,
    batch: usize,
    /// `limbs[i][b·N + j]` = coefficient/evaluation `j` of polynomial
    /// `b` mod `q_i`.
    limbs: Vec<Vec<u64>>,
    domain: Domain,
}

impl PolyBatch {
    /// A batch of `batch` zero polynomials in the coefficient domain.
    pub(crate) fn zero(ctx: Arc<RnsContext>, batch: usize) -> Self {
        assert!(batch >= 1, "batch must be non-empty");
        let len = batch * ctx.n();
        let limbs = (0..ctx.level_count())
            .map(|_| ctx.pool().take_zeroed(len))
            .collect();
        Self {
            ctx,
            batch,
            limbs,
            domain: Domain::Coefficient,
        }
    }

    /// A zero batch already tagged as evaluation-domain (the NTT of the
    /// zero polynomial is zero, so no transform is needed).
    pub fn zero_evaluation(ctx: Arc<RnsContext>, batch: usize) -> Self {
        let mut z = Self::zero(ctx, batch);
        z.domain = Domain::Evaluation;
        z
    }

    /// Wraps raw batch-major limb data; the batch size is the limb
    /// length over the degree.
    ///
    /// # Panics
    /// Panics on shape mismatch with the context: a wrong limb count,
    /// ragged limbs, or a limb length that is not a positive multiple
    /// of `N`.
    pub fn from_limbs(ctx: Arc<RnsContext>, limbs: Vec<Vec<u64>>, domain: Domain) -> Self {
        assert_eq!(limbs.len(), ctx.level_count(), "limb count mismatch");
        let len = limbs[0].len();
        let batch = len / ctx.n();
        assert!(
            batch >= 1 && batch * ctx.n() == len,
            "limb length must be a positive multiple of the degree"
        );
        for l in &limbs {
            assert_eq!(l.len(), len, "limb length mismatch");
        }
        Self {
            ctx,
            batch,
            limbs,
            domain,
        }
    }

    /// Lifts signed coefficients (e.g. a sampled secret or error) into
    /// every limb of a batch of one.
    pub fn from_signed_coeffs(ctx: Arc<RnsContext>, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n());
        let limbs = ctx
            .moduli()
            .iter()
            .map(|&q| {
                let mut limb = ctx.pool().take(coeffs.len());
                limb.extend(coeffs.iter().map(|&v| from_signed(v, q)));
                limb
            })
            .collect();
        Self {
            ctx,
            batch: 1,
            limbs,
            domain: Domain::Coefficient,
        }
    }

    /// Concatenates polynomials (or whole batches) into one batch, in
    /// order.
    ///
    /// # Panics
    /// Panics if `polys` is empty or the polynomials disagree on
    /// degree, basis, or domain.
    pub fn from_polys<'a>(polys: impl IntoIterator<Item = &'a PolyBatch>) -> Self {
        let polys: Vec<&PolyBatch> = polys.into_iter().collect();
        assert!(!polys.is_empty(), "batch must be non-empty");
        let first = polys[0];
        let ctx = first.ctx.clone();
        for p in &polys {
            assert_eq!(p.ctx.n(), ctx.n(), "degree mismatch");
            assert_eq!(p.ctx.moduli(), ctx.moduli(), "basis mismatch");
            assert_eq!(p.domain, first.domain, "domain mismatch");
        }
        let batch = polys.iter().map(|p| p.batch).sum();
        let limbs = (0..ctx.level_count())
            .map(|i| {
                let mut limb = ctx.pool().take(batch * ctx.n());
                for p in &polys {
                    limb.extend_from_slice(&p.limbs[i]);
                }
                limb
            })
            .collect();
        Self {
            ctx,
            batch,
            limbs,
            domain: first.domain,
        }
    }

    /// Scatters the batch back into independent polynomials.
    pub fn to_polys(&self) -> Vec<RnsPoly> {
        (0..self.batch).map(|b| self.poly(b)).collect()
    }

    /// Extracts polynomial `b` as a standalone batch of one.
    pub fn poly(&self, b: usize) -> RnsPoly {
        assert!(b < self.batch, "batch index out of range");
        let n = self.ctx.n();
        let pool = self.ctx.pool();
        Self {
            ctx: self.ctx.clone(),
            batch: 1,
            limbs: self
                .limbs
                .iter()
                .map(|l| pool.copy_of(&l[b * n..(b + 1) * n]))
                .collect(),
            domain: self.domain,
        }
    }

    /// Shared context handle.
    pub fn context(&self) -> &Arc<RnsContext> {
        &self.ctx
    }

    /// Number of polynomials in the batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Current domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of limbs.
    pub fn level_count(&self) -> usize {
        self.limbs.len()
    }

    /// Batch-major limb views (`batch · N` residues each).
    pub fn limbs(&self) -> &[Vec<u64>] {
        &self.limbs
    }

    /// Mutable limb views (caller must preserve reduction invariants).
    pub fn limbs_mut(&mut self) -> &mut [Vec<u64>] {
        &mut self.limbs
    }

    /// Total residues across all limbs — the work of one element-wise
    /// pass, for [`par::par_for_each_sized`].
    fn total_elems(&self) -> usize {
        self.limbs.len() * self.batch * self.ctx.n()
    }

    /// Runs `f(limb_index, segment)` over every degree-`N` segment of
    /// every limb, fanned out over as many pool workers as the
    /// transforms pay for.
    fn for_each_segment_mut<F>(&mut self, f: F)
    where
        F: Fn(usize, &mut [u64]) + Sync,
    {
        let n = self.ctx.n();
        // a transform does log₂N butterfly layers over every residue
        let work = self.total_elems() * n.trailing_zeros() as usize;
        let mut segments: Vec<(usize, &mut [u64])> =
            Vec::with_capacity(self.limbs.len() * self.batch);
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            for seg in limb.chunks_mut(n) {
                segments.push((i, seg));
            }
        }
        par::par_for_each_sized(&mut segments, work, |_, (i, seg)| f(*i, seg));
    }

    /// Converts all polynomials to the evaluation domain —
    /// `level_count · batch` independent NTTs through the host engine
    /// (bit-identical to the radix-2 loop).
    pub fn to_evaluation(&mut self) {
        if self.domain == Domain::Coefficient {
            let ctx = self.ctx.clone();
            self.for_each_segment_mut(|i, seg| host_ntt::forward_inplace(seg, &ctx.tables()[i]));
            self.domain = Domain::Evaluation;
        }
    }

    /// Converts all polynomials to the coefficient domain.
    pub fn to_coefficient(&mut self) {
        if self.domain == Domain::Evaluation {
            let ctx = self.ctx.clone();
            self.for_each_segment_mut(|i, seg| host_ntt::inverse_inplace(seg, &ctx.tables()[i]));
            self.domain = Domain::Coefficient;
        }
    }

    /// This batch in `domain`: itself when it is already there, a
    /// transformed copy otherwise.
    pub fn in_domain(&self, domain: Domain) -> Cow<'_, Self> {
        if self.domain == domain {
            return Cow::Borrowed(self);
        }
        let mut copy = self.clone();
        match domain {
            Domain::Evaluation => copy.to_evaluation(),
            Domain::Coefficient => copy.to_coefficient(),
        }
        Cow::Owned(copy)
    }

    /// A same-shape result whose limb `i` is written by `f(i, out)`
    /// into an empty buffer drawn from the limb pool, limbs fanned out
    /// over as many pool workers as the pass pays for.
    fn map_limbs(&self, f: impl Fn(usize, &mut Vec<u64>) + Sync) -> Self {
        let pool = self.ctx.pool();
        let len = self.batch * self.ctx.n();
        let mut limbs: Vec<Vec<u64>> = self.limbs.iter().map(|_| pool.take(len)).collect();
        par::par_for_each_sized(&mut limbs, self.total_elems(), |i, limb| f(i, limb));
        Self {
            ctx: self.ctx.clone(),
            batch: self.batch,
            limbs,
            domain: self.domain,
        }
    }

    /// Runs `kernel(q_i, limb_i, other_limb_i, out)` over every limb of
    /// two batches of one shape.
    ///
    /// # Panics
    /// Panics if the batches disagree on size, degree, level or domain.
    fn zip_limbs(
        &self,
        other: &Self,
        kernel: impl Fn(u64, &[u64], &[u64], &mut Vec<u64>) + Sync,
    ) -> Self {
        assert_eq!(self.batch, other.batch, "batch size mismatch");
        assert_eq!(self.ctx.n(), other.ctx.n(), "degree mismatch");
        assert_eq!(self.level_count(), other.level_count(), "level mismatch");
        assert_eq!(self.domain, other.domain, "domain mismatch");
        let moduli = self.ctx.moduli();
        self.map_limbs(|i, out| kernel(moduli[i], &self.limbs[i], &other.limbs[i], out))
    }

    fn zip_with(&self, other: &Self, f: impl Fn(u64, u64, u64) -> u64 + Sync) -> Self {
        self.zip_limbs(other, |q, a, b, out| {
            out.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y, q)))
        })
    }

    fn assert_evaluation(&self) {
        assert_eq!(
            self.domain,
            Domain::Evaluation,
            "pointwise products require the evaluation domain"
        );
    }

    /// Limb-wise sum over the whole batch.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_with(other, add_mod)
    }

    /// Limb-wise sum written into this batch (`self += other`), for a
    /// caller that owns a batch the sum can replace: no limb is
    /// allocated. Bit-identical to [`PolyBatch::add`].
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.batch, other.batch, "batch size mismatch");
        assert_eq!(self.ctx.n(), other.ctx.n(), "degree mismatch");
        assert_eq!(self.level_count(), other.level_count(), "level mismatch");
        assert_eq!(self.domain, other.domain, "domain mismatch");
        let moduli = self.ctx.moduli();
        let work = self.total_elems();
        par::par_for_each_sized(&mut self.limbs, work, |i, limb| {
            for (x, &y) in limb.iter_mut().zip(&other.limbs[i]) {
                *x = add_mod(*x, y, moduli[i]);
            }
        });
    }

    /// Limb-wise difference over the whole batch.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_with(other, sub_mod)
    }

    /// Limb-wise pointwise product over the whole batch — one fused
    /// `batch · N`-wide VecModMul per limb. Both operands must be in
    /// the evaluation domain.
    ///
    /// # Panics
    /// Panics if either operand is in the coefficient domain.
    pub fn mul_pointwise(&self, other: &Self) -> Self {
        self.assert_evaluation();
        self.zip_limbs(other, mul_segment)
    }

    /// The sum of two pointwise products, `self ⊙ other + x ⊙ y`, in
    /// one pass: per element the two raw products are added and the sum
    /// is reduced once. That is the canonical residue of the same sum,
    /// so it is bit-identical to `self.mul_pointwise(other)
    /// .add(&x.mul_pointwise(y))` with one limb set and one memory pass
    /// fewer — the cross term of the HE-Mult tensor product.
    ///
    /// # Panics
    /// Panics if the four operands disagree on shape or domain, or are
    /// in the coefficient domain.
    pub fn mul_pointwise_sum(&self, other: &Self, x: &Self, y: &Self) -> Self {
        self.assert_evaluation();
        for o in [other, x, y] {
            assert_eq!(self.batch, o.batch, "batch size mismatch");
            assert_eq!(self.ctx.n(), o.ctx.n(), "degree mismatch");
            assert_eq!(self.level_count(), o.level_count(), "level mismatch");
            assert_eq!(self.domain, o.domain, "domain mismatch");
        }
        let moduli = self.ctx.moduli();
        self.map_limbs(|i, out| {
            let q = moduli[i];
            let pairs = self.limbs[i].iter().zip(&other.limbs[i]);
            let terms = pairs.zip(x.limbs[i].iter().zip(&y.limbs[i]));
            if q >> 31 == 0 {
                // two raw products of canonical residues, each below
                // 2⁶², sum without overflowing a u64
                let mu = barrett_mu(q);
                out.extend(terms.map(|((&a, &b), (&c, &d))| reduce_barrett(a * b + c * d, q, mu)));
            } else {
                out.extend(
                    terms
                        .map(|((&a, &b), (&c, &d))| add_mod(mul_mod(a, b, q), mul_mod(c, d, q), q)),
                );
            }
        })
    }

    /// Negation over the whole batch.
    pub fn neg(&self) -> Self {
        let moduli = self.ctx.moduli();
        self.map_limbs(|i, out| out.extend(self.limbs[i].iter().map(|&x| neg_mod(x, moduli[i]))))
    }

    /// Multiplies limb `i` by scalar `s[i]` across the whole batch —
    /// BConv step 1 / rescale shape.
    ///
    /// # Panics
    /// Panics if `s.len() != level_count()`.
    pub fn mul_scalar_per_limb(&self, s: &[u64]) -> Self {
        assert_eq!(s.len(), self.level_count());
        let moduli = self.ctx.moduli();
        self.map_limbs(|i, out| {
            let q = moduli[i];
            let si = s[i] % q;
            out.extend(self.limbs[i].iter().map(|&x| mul_mod(x, si, q)));
        })
    }

    /// Galois automorphism `σ_g` applied to every batch entry
    /// (coefficient domain).
    pub fn automorphism(&self, g: u64) -> Self {
        assert!(g % 2 == 1, "Galois elements must be odd");
        assert_eq!(
            self.domain,
            Domain::Coefficient,
            "reference automorphism operates on coefficients"
        );
        let n = self.ctx.n();
        let two_n = 2 * n as u64;
        let moduli = self.ctx.moduli();
        self.map_limbs(|i, out| {
            let q = moduli[i];
            out.resize(self.limbs[i].len(), 0);
            for (seg_out, seg_in) in out.chunks_mut(n).zip(self.limbs[i].chunks(n)) {
                for (j, &aj) in seg_in.iter().enumerate() {
                    if aj == 0 {
                        continue;
                    }
                    let e = (j as u64 * (g % two_n)) % two_n;
                    if e < n as u64 {
                        seg_out[e as usize] = add_mod(seg_out[e as usize], aj, q);
                    } else {
                        let idx = (e - n as u64) as usize;
                        seg_out[idx] = sub_mod(seg_out[idx], aj, q);
                    }
                }
            }
        })
    }

    /// Per-limb, per-segment gather in the evaluation domain: every
    /// degree-`N` segment of limb `t` is reindexed by `perms[t]`,
    /// `out[t][b·N + i] = self[t][b·N + perms[t][i]]`.
    ///
    /// The Galois automorphism `σ_g` permutes the negacyclic
    /// evaluation points (`σ_g(c)(ψ^e) = c(ψ^{g·e mod 2N})`, and odd
    /// exponents stay odd), so with the right index table this equals
    /// `NTT(σ_g(INTT(·)))` bit-for-bit with zero transforms — the
    /// caller supplies one permutation per limb (orderings are
    /// engine- and modulus-specific).
    ///
    /// # Panics
    /// Panics off the evaluation domain or on a ragged table.
    pub fn gather_eval(&self, perms: &[Vec<u32>]) -> Self {
        assert_eq!(
            self.domain,
            Domain::Evaluation,
            "gather_eval permutes evaluation points"
        );
        assert!(perms.len() >= self.limbs.len(), "one permutation per limb");
        let n = self.ctx.n();
        self.map_limbs(|t, out| {
            let perm = &perms[t];
            assert_eq!(perm.len(), n, "permutation length mismatch");
            for seg in self.limbs[t].chunks(n) {
                out.extend(perm.iter().map(|&s| seg[s as usize]));
            }
        })
    }

    /// Adds `other` read through the [`PolyBatch::gather_eval`] index
    /// tables into this batch (`self += π(other)`) in one pass, without
    /// materializing the gathered batch. Bit-identical to
    /// `other.gather_eval(perms).add(self)`.
    ///
    /// # Panics
    /// Panics off the evaluation domain, on a shape mismatch or on a
    /// ragged table.
    pub fn add_gathered(&mut self, other: &Self, perms: &[Vec<u32>]) {
        assert_eq!(self.batch, other.batch, "batch size mismatch");
        assert_eq!(self.ctx.n(), other.ctx.n(), "degree mismatch");
        assert_eq!(self.level_count(), other.level_count(), "level mismatch");
        assert!(
            self.domain == Domain::Evaluation && other.domain == Domain::Evaluation,
            "gather_eval permutes evaluation points"
        );
        assert!(perms.len() >= self.limbs.len(), "one permutation per limb");
        let n = self.ctx.n();
        let moduli = self.ctx.moduli();
        let work = self.total_elems();
        par::par_for_each_sized(&mut self.limbs, work, |t, limb| {
            let perm = &perms[t];
            assert_eq!(perm.len(), n, "permutation length mismatch");
            for (out, seg) in limb.chunks_mut(n).zip(other.limbs[t].chunks(n)) {
                for (x, &s) in out.iter_mut().zip(perm) {
                    *x = add_mod(*x, seg[s as usize], moduli[t]);
                }
            }
        });
    }

    /// Drops trailing limbs down to `new_ctx` (a prefix of this batch's
    /// basis) in one step — the modulus-drop shape (coefficient
    /// interpretation unchanged mod the remaining basis), one
    /// allocation per polynomial however many levels are dropped.
    ///
    /// # Panics
    /// Panics if `new_ctx` is not a prefix of the current basis.
    pub fn truncate_to(&self, new_ctx: Arc<RnsContext>) -> Self {
        let l = new_ctx.level_count();
        assert!(l >= 1 && l <= self.level_count(), "cannot raise levels");
        assert_eq!(new_ctx.n(), self.ctx.n(), "degree mismatch");
        assert_eq!(
            new_ctx.moduli(),
            &self.ctx.moduli()[..l],
            "target basis must be a prefix"
        );
        let limbs = self.limbs[..l]
            .iter()
            .map(|limb| new_ctx.pool().copy_of(limb))
            .collect();
        Self {
            ctx: new_ctx,
            batch: self.batch,
            limbs,
            domain: self.domain,
        }
    }

    /// Reconstructs coefficient `j` of a batch of one as a centered
    /// `f64` via CRT — the decode-side helper (requires the coefficient
    /// domain). Allocates nothing ([`RnsBasis::centered_f64`]).
    ///
    /// [`RnsBasis::centered_f64`]: cross_math::rns::RnsBasis::centered_f64
    pub fn coeff_signed_f64(&self, j: usize) -> f64 {
        assert_eq!(self.batch, 1, "decode one polynomial at a time");
        assert_eq!(self.domain, Domain::Coefficient);
        self.ctx
            .basis()
            .centered_f64(self.limbs.iter().map(|l| l[j]))
    }
}

/// A copy whose limbs are drawn from the context's pool.
impl Clone for PolyBatch {
    fn clone(&self) -> Self {
        let pool = self.ctx.pool();
        Self {
            ctx: self.ctx.clone(),
            batch: self.batch,
            limbs: self.limbs.iter().map(|l| pool.copy_of(l)).collect(),
            domain: self.domain,
        }
    }
}

/// Gives the limbs back to the context's pool.
impl Drop for PolyBatch {
    fn drop(&mut self) {
        self.ctx.pool().give(self.limbs.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_math::primes;

    fn ctx(logn: u32, l: usize) -> Arc<RnsContext> {
        let n = 1usize << logn;
        let moduli = primes::ntt_prime_chain(28, n as u64, l).unwrap();
        Arc::new(RnsContext::new(n, moduli))
    }

    fn sample_polys(c: &Arc<RnsContext>, batch: usize, seed: i64) -> Vec<RnsPoly> {
        (0..batch as i64)
            .map(|b| {
                let coeffs: Vec<i64> = (0..c.n() as i64)
                    .map(|j| (j * 7 + b * 13 + seed) % 97 - 48)
                    .collect();
                RnsPoly::from_signed_coeffs(c.clone(), &coeffs)
            })
            .collect()
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let c = ctx(5, 3);
        let polys = sample_polys(&c, 4, 1);
        let pb = PolyBatch::from_polys(&polys);
        assert_eq!(pb.batch(), 4);
        let back = pb.to_polys();
        for (a, b) in polys.iter().zip(&back) {
            assert_eq!(a.limbs(), b.limbs());
            assert_eq!(a.domain(), b.domain());
        }
        // from_limbs reads the batch size off the limb length.
        let again = PolyBatch::from_limbs(c, pb.limbs().to_vec(), pb.domain());
        assert_eq!(again.batch(), 4);
    }

    #[test]
    fn batched_ntt_matches_sequential() {
        // the second shape is three workers' worth under the fan-out
        // gate, the first (and every lone polynomial) runs serial
        for (logn, l, batch) in [(6, 3, 5), (12, 4, 8)] {
            let c = ctx(logn, l);
            let polys = sample_polys(&c, batch, 2);
            let mut pb = PolyBatch::from_polys(&polys);
            pb.to_evaluation();
            for (b, p) in polys.iter().enumerate() {
                let mut want = p.clone();
                want.to_evaluation();
                assert_eq!(pb.poly(b).limbs(), want.limbs(), "poly {b}");
            }
            pb.to_coefficient();
            for (b, p) in polys.iter().enumerate() {
                assert_eq!(pb.poly(b).limbs(), p.limbs(), "roundtrip poly {b}");
            }
        }
    }

    #[test]
    fn elementwise_ops_match_sequential() {
        // 2^13 × 8 limbs × 16 entries is the smallest Set B batch whose
        // element-wise passes fan out (two workers' worth)
        for (logn, l, batch) in [(5, 2, 3), (13, 8, 16)] {
            let c = ctx(logn, l);
            let xs = sample_polys(&c, batch, 3);
            let ys = sample_polys(&c, batch, 11);
            let bx = PolyBatch::from_polys(&xs);
            let by = PolyBatch::from_polys(&ys);
            let sum = bx.add(&by);
            let diff = bx.sub(&by);
            let neg = bx.neg();
            let mut in_place = bx.clone();
            in_place.add_assign(&by);
            assert_eq!(in_place.limbs(), sum.limbs(), "add_assign");
            for b in 0..batch {
                assert_eq!(sum.poly(b).limbs(), xs[b].add(&ys[b]).limbs());
                assert_eq!(diff.poly(b).limbs(), xs[b].sub(&ys[b]).limbs());
                assert_eq!(neg.poly(b).limbs(), xs[b].neg().limbs());
            }
        }
    }

    #[test]
    fn one_pass_product_sum_matches_two_products_and_an_add() {
        // 28-bit moduli take the raw-sum path, 32-bit ones the strict one
        for bits in [28, 32] {
            let moduli = primes::ntt_prime_chain(bits, 32, 2).unwrap();
            let c = Arc::new(RnsContext::new(32, moduli));
            let mut ops: Vec<PolyBatch> = (0..4)
                .map(|k| PolyBatch::from_polys(&sample_polys(&c, 3, 5 + 6 * k)))
                .collect();
            for op in &mut ops {
                op.to_evaluation();
            }
            // and every residue at q − 1, the largest raw products
            let max = PolyBatch::from_limbs(
                c.clone(),
                c.moduli().iter().map(|&q| vec![q - 1; 3 * 32]).collect(),
                Domain::Evaluation,
            );
            for [a, b, x, y] in [
                [&ops[0], &ops[1], &ops[2], &ops[3]],
                [&max, &max, &max, &max],
            ] {
                let want = a.mul_pointwise(b).add(&x.mul_pointwise(y));
                assert_eq!(
                    a.mul_pointwise_sum(b, x, y).limbs(),
                    want.limbs(),
                    "{bits} bits"
                );
            }
        }
    }

    #[test]
    fn pointwise_matches_sequential() {
        let c = ctx(5, 2);
        let xs = sample_polys(&c, 3, 5);
        let ys = sample_polys(&c, 3, 17);
        let mut bx = PolyBatch::from_polys(&xs);
        let mut by = PolyBatch::from_polys(&ys);
        bx.to_evaluation();
        by.to_evaluation();
        let prod = bx.mul_pointwise(&by);
        for b in 0..3 {
            let mut ex = xs[b].clone();
            ex.to_evaluation();
            let mut ey = ys[b].clone();
            ey.to_evaluation();
            assert_eq!(prod.poly(b).limbs(), ex.mul_pointwise(&ey).limbs());
        }
    }

    #[test]
    fn automorphism_and_scalar_match_sequential() {
        let c = ctx(5, 3);
        let xs = sample_polys(&c, 4, 9);
        let pb = PolyBatch::from_polys(&xs);
        let rot = pb.automorphism(5);
        let s = vec![3u64, 1, 7];
        let scaled = pb.mul_scalar_per_limb(&s);
        let perms: Vec<Vec<u32>> = (0..3u32)
            .map(|t| (0..32u32).map(|i| (i * 5 + t) % 32).collect())
            .collect();
        let mut pe = pb.clone();
        pe.to_evaluation();
        let gathered = pe.gather_eval(&perms);
        let mut sum = pe.mul_scalar_per_limb(&s);
        let want_sum = gathered.add(&sum);
        sum.add_gathered(&pe, &perms);
        assert_eq!(sum.limbs(), want_sum.limbs(), "add_gathered");
        for (b, x) in xs.iter().enumerate() {
            assert_eq!(rot.poly(b).limbs(), x.automorphism(5).limbs());
            assert_eq!(scaled.poly(b).limbs(), x.mul_scalar_per_limb(&s).limbs());
            let entry = pe.poly(b);
            for (t, perm) in perms.iter().enumerate() {
                let want: Vec<u64> = perm.iter().map(|&s| entry.limbs()[t][s as usize]).collect();
                assert_eq!(gathered.poly(b).limbs()[t], want, "entry {b} limb {t}");
            }
        }
    }

    #[test]
    fn truncate_matches_sequential_drop() {
        let c = ctx(4, 3);
        let xs = sample_polys(&c, 2, 21);
        let pb = PolyBatch::from_polys(&xs);
        let c2 = Arc::new(RnsContext::with_tables(16, c.tables()[..2].to_vec()));
        let t = pb.truncate_to(c2.clone());
        assert_eq!(t.level_count(), 2);
        for (b, x) in xs.iter().enumerate() {
            assert_eq!(t.poly(b).limbs(), x.truncate_to(c2.clone()).limbs());
        }
    }

    #[test]
    fn zero_evaluation_is_ntt_of_zero() {
        let c = ctx(4, 2);
        let mut z = PolyBatch::zero(c.clone(), 3);
        z.to_evaluation();
        let ze = PolyBatch::zero_evaluation(c, 3);
        assert_eq!(z.limbs(), ze.limbs());
        assert_eq!(z.domain(), ze.domain());
    }

    #[test]
    #[should_panic(expected = "domain mismatch")]
    fn mixed_domain_rejected() {
        let c = ctx(4, 2);
        let xs = sample_polys(&c, 2, 1);
        let mut e = PolyBatch::from_polys(&xs);
        e.to_evaluation();
        let coeff = PolyBatch::from_polys(&xs);
        let _ = e.add(&coeff);
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn mismatched_batch_sizes_rejected() {
        let c = ctx(4, 2);
        let polys = sample_polys(&c, 2, 1);
        let mut pb = PolyBatch::from_polys(&polys);
        pb.to_evaluation();
        let mut one = polys[0].clone();
        one.to_evaluation();
        let _ = pb.mul_pointwise(&one);
    }
}
