//! The batched ciphertext container, and the hybrid key-switching
//! kernels HE-Mult and every Galois operator bottom out in, next to
//! the reference dataflows they are pinned against.
//!
//! A [`BatchedCiphertext`] holds `B` same-level ciphertexts as they
//! are. Each `*_batch` operator maps the eager body of its
//! [`Evaluator`] method over the entries, so every entry of a batch
//! result is the eager result's bits by construction
//! (`tests/batched_equivalence.rs` pins it per operator). The entries
//! spread over the `par` pool once their work pays for a second
//! worker, the gate every kernel's own loop passes.
//!
//! No executed path builds a batch: the graph executor and the serving
//! loop call the eager methods, and only the cost model fuses a batch
//! (`cross_sched`'s `FusedBatch`: the paper's streamed batch
//! dimension, Fig. 11b, §V-A). A batch is built only by a caller that
//! asks for one.
//!
//! The key-switch kernels take a [`PolyBatch`] of any width; the eager
//! operators call them at width one. Every limb they make — the
//! converted digits, the key inner product's accumulators, the
//! mod-down's correction limbs — is drawn from the context's
//! [`LimbPool`] and goes back to it when its holder is dropped, so a
//! warm operator asks the allocator for no limb (`tests/budgets.rs`).
//! An accumulator is zero-filled explicitly; every other limb is
//! written whole.

use crate::ciphertext::Ciphertext;
use crate::eval::Evaluator;
use crate::keys::SwitchingKey;
use crate::ks_plan::KsPlan;
use cross_core::bconv::BconvKernel;
use cross_core::modred::ModRed;
use cross_math::rns::RnsBasis;
use cross_math::{modops, par};
use cross_poly::ring::Domain;
use cross_poly::rns_poly::{RnsContext, RnsPoly};
use cross_poly::{host_ntt, small_ntt, LimbPool, PolyBatch};
use std::sync::Arc;

/// The key-independent half of a hybrid key switch
/// ([`Evaluator::ks_decompose`]): per digit, the base-extended limbs
/// in evaluation form, batch-major, in the digit plan's kernel output
/// order. `dnum·(l+k) − l` limbs of `N·batch` words at level `l`,
/// drawn from the context's limb pool and given back when dropped.
#[derive(Debug)]
pub(crate) struct KsDigits {
    converted: Vec<Vec<Vec<u64>>>,
    pool: Arc<LimbPool>,
}

impl Clone for KsDigits {
    fn clone(&self) -> Self {
        let copy = |digit: &Vec<Vec<u64>>| digit.iter().map(|l| self.pool.copy_of(l)).collect();
        Self {
            converted: self.converted.iter().map(copy).collect(),
            pool: self.pool.clone(),
        }
    }
}

impl Drop for KsDigits {
    fn drop(&mut self) {
        self.pool.give(self.converted.drain(..).flatten());
    }
}

#[cfg(test)]
impl KsDigits {
    /// Converted (base-extended, forward-transformed) limbs held — the
    /// forward NTTs the decomposition paid.
    pub(crate) fn converted_limbs(&self) -> usize {
        self.converted.iter().map(Vec::len).sum()
    }
}

/// One digit segment of the key inner product, both key halves in one
/// pass: `a0[i] += x·kb[i]` and `a1[i] += x·ka[i]` with `x = xs[i]`, or
/// `xs[perm[i]]` through an index table — each digit residue read
/// once, the 4-byte key residues widened as they are read, raw `u64`
/// products reduced by the caller.
#[inline]
fn mul_acc(
    xs: &[u64],
    perm: Option<&[u32]>,
    (kb, ka): (&[u32], &[u32]),
    (a0, a1): (&mut [u64], &mut [u64]),
) {
    let keys = kb.iter().zip(ka);
    let accs = a0.iter_mut().zip(a1.iter_mut());
    match perm {
        None => {
            for (((a0, a1), (&kb, &ka)), &x) in accs.zip(keys).zip(xs) {
                *a0 += x * u64::from(kb);
                *a1 += x * u64::from(ka);
            }
        }
        Some(perm) => {
            for (((a0, a1), (&kb, &ka)), &p) in accs.zip(keys).zip(perm) {
                let x = xs[p as usize];
                *a0 += x * u64::from(kb);
                *a1 += x * u64::from(ka);
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Decompositions built on this thread (count-conformance tests).
    pub(crate) static DECOMPOSITIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A batch of same-level CKKS ciphertexts, held entry by entry.
///
/// Each `*_batch` operator of [`Evaluator`] runs its eager body on
/// every entry, and panics where that body does; a binary one also
/// panics when the batch sizes differ.
#[derive(Debug, Clone)]
pub struct BatchedCiphertext {
    entries: Vec<Ciphertext>,
}

impl BatchedCiphertext {
    /// Gathers same-level ciphertexts into one batch (one copy of
    /// each).
    ///
    /// # Panics
    /// Panics if `cts` is empty, levels diverge, or a component is not
    /// a batch of one.
    pub fn from_ciphertexts<'a>(cts: impl IntoIterator<Item = &'a Ciphertext>) -> Self {
        let entries: Vec<Ciphertext> = cts.into_iter().cloned().collect();
        assert!(!entries.is_empty(), "batch must be non-empty");
        entries.iter().for_each(Ciphertext::assert_single);
        assert!(
            entries.iter().all(|c| c.level == entries[0].level),
            "ciphertexts must share a level (mod_drop first)"
        );
        Self { entries }
    }

    /// Scatters the batch back into independent ciphertexts (one copy
    /// of each).
    pub fn to_ciphertexts(&self) -> Vec<Ciphertext> {
        self.entries.clone()
    }

    /// `f(b, entry)` for every entry, as a new batch. The entries
    /// spread over the `par` pool once `per_residue` operations per
    /// residue of each entry pay for a second worker; an entry's own
    /// kernels then run inline on its worker.
    fn map(&self, per_residue: usize, f: impl Fn(usize, &Ciphertext) -> Ciphertext + Sync) -> Self {
        let first = &self.entries[0];
        let residues = 2 * first.level * first.c0.context().n();
        let work = self.entries.len() * residues * per_residue;
        let mut out: Vec<Option<Ciphertext>> = self.entries.iter().map(|_| None).collect();
        par::par_for_each_sized(&mut out, work, |b, slot| {
            *slot = Some(f(b, &self.entries[b]));
        });
        let entries = out.into_iter().map(|ct| ct.expect("every entry is mapped"));
        Self {
            entries: entries.collect(),
        }
    }

    /// [`BatchedCiphertext::map`] over the pairs of entries of `self`
    /// and `other`.
    ///
    /// # Panics
    /// Panics if the batch sizes differ.
    fn zip_map(
        &self,
        other: &Self,
        per_residue: usize,
        f: impl Fn(&Ciphertext, &Ciphertext) -> Ciphertext + Sync,
    ) -> Self {
        assert_eq!(
            self.entries.len(),
            other.entries.len(),
            "batch size mismatch"
        );
        self.map(per_residue, |b, x| f(x, &other.entries[b]))
    }
}

impl<'a> Evaluator<'a> {
    /// Operations per residue of an operator that transforms its limbs
    /// — the fan-out gate's weight for rescale, HE-Mult and the Galois
    /// operators; an element-wise operator weighs 1.
    fn log_n(&self) -> usize {
        self.context().params().n.trailing_zeros() as usize
    }

    /// [`Evaluator::mod_drop`] on every entry.
    pub fn mod_drop_batch(&self, ct: &BatchedCiphertext, level: usize) -> BatchedCiphertext {
        ct.map(1, |_, e| self.mod_drop(e, level))
    }

    /// [`Evaluator::add`] on every pair of entries.
    pub fn add_batch(&self, a: &BatchedCiphertext, b: &BatchedCiphertext) -> BatchedCiphertext {
        a.zip_map(b, 1, |x, y| self.add(x, y))
    }

    /// [`Evaluator::sub`] on every pair of entries.
    pub fn sub_batch(&self, a: &BatchedCiphertext, b: &BatchedCiphertext) -> BatchedCiphertext {
        a.zip_map(b, 1, |x, y| self.sub(x, y))
    }

    /// [`Evaluator::add_plain`] on every entry, one plaintext for all.
    pub fn add_plain_batch(
        &self,
        ct: &BatchedCiphertext,
        pt: &RnsPoly,
        pt_scale: f64,
    ) -> BatchedCiphertext {
        ct.map(1, |_, e| self.add_plain(e, pt, pt_scale))
    }

    /// [`Evaluator::mult_plain`] on every entry, one plaintext for all.
    pub fn mult_plain_batch(
        &self,
        ct: &BatchedCiphertext,
        pt: &RnsPoly,
        pt_scale: f64,
    ) -> BatchedCiphertext {
        ct.map(1, |_, e| self.mult_plain(e, pt, pt_scale))
    }

    /// [`Evaluator::mult`] on every pair of entries.
    pub fn mult_batch(
        &self,
        a: &BatchedCiphertext,
        b: &BatchedCiphertext,
        relin: &SwitchingKey,
    ) -> BatchedCiphertext {
        a.zip_map(b, self.log_n(), |x, y| self.mult(x, y, relin))
    }

    /// [`Evaluator::rescale`] on every entry.
    pub fn rescale_batch(&self, ct: &BatchedCiphertext) -> BatchedCiphertext {
        ct.map(self.log_n(), |_, e| self.rescale(e))
    }

    /// [`Evaluator::rotate`] on every entry.
    pub fn rotate_batch(
        &self,
        ct: &BatchedCiphertext,
        steps: usize,
        rot_key: &SwitchingKey,
    ) -> BatchedCiphertext {
        ct.map(self.log_n(), |_, e| self.rotate(e, steps, rot_key))
    }

    /// [`Evaluator::conjugate`] on every entry.
    pub fn conjugate_batch(
        &self,
        ct: &BatchedCiphertext,
        conj_key: &SwitchingKey,
    ) -> BatchedCiphertext {
        ct.map(self.log_n(), |_, e| self.conjugate(e, conj_key))
    }

    /// The pre-plan rescale oracle on every entry: all limbs through a
    /// full INTT/NTT round trip, `inv_mod` recomputed per limb. Kept as
    /// the differential reference for [`Evaluator::rescale`];
    /// `tests/ks_fast.rs` pins the two bit-identical.
    pub fn rescale_batch_reference(&self, ct: &BatchedCiphertext) -> BatchedCiphertext {
        ct.map(self.log_n(), |_, e| self.rescale_reference(e))
    }

    /// One entry of [`Evaluator::rescale_batch_reference`].
    fn rescale_reference(&self, ct: &Ciphertext) -> Ciphertext {
        assert!(ct.level >= 2, "cannot rescale at level 1");
        let l = ct.level;
        let q_last = self.context().q_moduli()[l - 1];
        let new_ctx = self.context().level_ctx(l - 1).clone();
        let rescale_poly = |p: &RnsPoly| -> RnsPoly {
            let mut c = p.clone();
            c.to_coefficient();
            let last = c.limbs()[l - 1].clone();
            let mut new_limbs = Vec::with_capacity(l - 1);
            for i in 0..l - 1 {
                let qi = new_ctx.moduli()[i];
                let inv = modops::inv_mod(q_last % qi, qi).expect("coprime chain");
                let limb: Vec<u64> = c.limbs()[i]
                    .iter()
                    .zip(&last)
                    .map(|(&ci, &cl)| {
                        // centered last-limb residue for round-to-nearest
                        let centered = modops::to_signed(cl, q_last);
                        let cl_i = modops::from_signed(centered, qi);
                        modops::mul_mod(modops::sub_mod(ci, cl_i, qi), inv, qi)
                    })
                    .collect();
                new_limbs.push(limb);
            }
            let mut out = PolyBatch::from_limbs(new_ctx.clone(), new_limbs, Domain::Coefficient);
            out.to_evaluation();
            out
        };
        Ciphertext {
            c0: rescale_poly(&ct.c0),
            c1: rescale_poly(&ct.c1),
            level: l - 1,
            scale: ct.scale / q_last as f64,
        }
    }

    /// Hybrid key switching (paper \[37\]) on the cached-plan fast path:
    /// digit decomposition, fast base extension and the key inner
    /// products all run over the fused `batch · N` rows (the BConv
    /// matmul sees `N·batch` streamed rows, the key limbs broadcast
    /// across the batch); a single polynomial is the batch-of-one
    /// call. Returns `(out0, out1)` with `out0 + out1·s ≈ d·s'`.
    /// Bit-exact with [`Evaluator::key_switch_reference`]
    /// (`tests/ks_fast.rs`).
    ///
    /// The two halves of the fast path (DESIGN.md §12) back to back:
    /// `ks_decompose`, then `ks_apply` with
    /// no permutation. Three wins over the reference dataflow, each
    /// exact:
    ///
    /// 1. **No per-op compilation** — BConv kernels, slot layouts and
    ///    scaling constants come off the per-level [`KsPlan`] cached on
    ///    the context.
    /// 2. **Digit limbs sliced, not round-tripped** — a digit's own
    ///    limbs are already held in evaluation form by the input, so
    ///    only the base-extended limbs pay a forward NTT
    ///    (`NTT(INTT(x)) = x` bit-for-bit: the transforms are exact
    ///    mutually-inverse bijections on canonical residue vectors).
    /// 3. **Accumulate, then reduce** — the key inner product sums raw
    ///    `u64` products of canonical residues across the digits and
    ///    folds once per element (Barrett, `⌊2⁶⁴/q⌋`); the canonical
    ///    residue of the same sum, so bit-identical to the strict
    ///    add-per-digit chain — and the key is read as stored, 4 B a
    ///    residue with no Shoup companion, each digit residue read
    ///    once for both key halves.
    pub fn key_switch(&self, d: &PolyBatch, key: &SwitchingKey) -> (PolyBatch, PolyBatch) {
        let digits = self.ks_decompose(d);
        self.ks_apply(&d.in_domain(Domain::Evaluation), &digits, key, None)
    }

    /// The decompose half of a key switch — `costs::Phase::
    /// DigitDecomposition`, everything that does not depend on the
    /// key: the inverse transform of `d` (skipped for a
    /// coefficient-form input), then per digit the fast base extension
    /// of its coefficient-form limbs to the rest of the `Q_l·P` chain
    /// and the forward NTT of those converted limbs.
    pub(crate) fn ks_decompose(&self, d: &PolyBatch) -> KsDigits {
        #[cfg(test)]
        DECOMPOSITIONS.with(|c| c.set(c.get() + 1));
        let ctx = self.context();
        let l = d.level_count();
        let n = ctx.params().n;
        let ks_ctx = ctx.ks_ctx(l);
        let d_coeff = d.in_domain(Domain::Coefficient);
        let digits = &ctx.ks_plan(l).digits;
        let rows = d.batch() * n;
        // fast base extension of each digit, all batch rows fused: one
        // BConv term per digit limb and converted limb
        let bconv_work = digits
            .iter()
            .map(|dp| dp.range.len() * dp.other_idx.len() * rows)
            .sum();
        let pool = ks_ctx.pool();
        let mut converted: Vec<Vec<Vec<u64>>> = digits
            .iter()
            .map(|dp| dp.other_idx.iter().map(|_| pool.take(rows)).collect())
            .collect();
        par::par_for_each_sized(&mut converted, bconv_work, |j, out| {
            let src: Vec<&[u64]> = digits[j]
                .range
                .clone()
                .map(|i| d_coeff.limbs()[i].as_slice())
                .collect();
            digits[j].kernel.convert_slices_into(&src, out);
        });
        // then every converted limb's forward NTT, across the digits
        let mut limbs: Vec<(&mut Vec<u64>, usize)> = converted
            .iter_mut()
            .zip(digits)
            .flat_map(|(out, dp)| out.iter_mut().zip(dp.other_idx.iter().copied()))
            .collect();
        let ntt_work = limbs.len() * rows * n.trailing_zeros() as usize;
        par::par_for_each_sized(&mut limbs, ntt_work, |_, (limb, slot)| {
            for seg in limb.chunks_mut(n) {
                host_ntt::forward_inplace(seg, &ks_ctx.tables()[*slot]);
            }
        });
        KsDigits {
            converted,
            pool: pool.clone(),
        }
    }

    /// The apply half of a key switch — `KeyInnerProduct` then
    /// `ModDown`: every extended digit of `d_eval` (its own limbs
    /// sliced from `d_eval`, the rest from `digits`) times the key's
    /// digit, summed per chain limb and reduced once, then divided by
    /// `P`.
    ///
    /// With `perms` (one evaluation-domain index table per global
    /// chain limb, [`CkksContext::galois_eval_perm`]) the extended
    /// digits are read through the gather — `σ_g` applied to them on
    /// their way into the inner product, at no extra pass — so the
    /// result switches `σ_g(d)` (see [`Evaluator::hoist_decompose`]).
    ///
    /// [`CkksContext::galois_eval_perm`]: crate::CkksContext::galois_eval_perm
    pub(crate) fn ks_apply(
        &self,
        d_eval: &PolyBatch,
        digits: &KsDigits,
        key: &SwitchingKey,
        perms: Option<&[Vec<u32>]>,
    ) -> (PolyBatch, PolyBatch) {
        debug_assert_eq!(d_eval.domain(), Domain::Evaluation);
        let ctx = self.context();
        let l = d_eval.level_count();
        let n = ctx.params().n;
        let ks_ctx = ctx.ks_ctx(l).clone();
        let plan = ctx.ks_plan(l).clone();
        let big_l = ctx.params().limbs;
        let rows = d_eval.batch() * n;
        let terms: Vec<_> = plan
            .digits
            .iter()
            .zip(&digits.converted)
            .zip(&key.digits)
            .collect();
        // One closure per chain limb, so its two accumulators stay
        // cache-resident across the digits; one read of the digit and
        // two MACs per digit and row.
        let ext = ks_ctx.moduli().len();
        let pool = ks_ctx.pool();
        let mut accs = vec![(Vec::new(), Vec::new()); ext];
        par::par_for_each_sized(&mut accs, 2 * ext * terms.len() * rows, |t, (a0, a1)| {
            let qt = ks_ctx.moduli()[t];
            // key (and permutation) limbs for this level: q indices
            // 0..l, then the extension indices big_l.. of the global
            // chain
            let g = if t < l { t } else { big_l + (t - l) };
            let perm = perms.map(|p| p[g].as_slice());
            let mu = modops::barrett_mu(qt);
            // Raw products of canonical residues are below q² (and
            // q < 2³², `CkksParams`' bound), so this many of them,
            // plus a carried-in residue, fit a `u64`: 256 at 28 bits.
            let fit = (u64::MAX / (qt * qt)) as usize;
            (*a0, *a1) = (pool.take_zeroed(rows), pool.take_zeroed(rows));
            for chunk in terms.chunks(fit) {
                for &((dp, converted), kd) in chunk {
                    let src_limb: &[u64] = match dp.conv_pos[t] {
                        Some(ci) => &converted[ci],
                        // the digit's own limbs, straight out of the
                        // evaluation-domain input
                        None => &d_eval.limbs()[t],
                    };
                    let segs = src_limb
                        .chunks(n)
                        .zip(a0.chunks_mut(n).zip(a1.chunks_mut(n)));
                    for (seg, accs) in segs {
                        mul_acc(seg, perm, (&kd.b[g], &kd.a[g]), accs);
                    }
                }
                for a in a0.iter_mut().chain(a1.iter_mut()) {
                    *a = modops::reduce_barrett(*a, qt, mu);
                }
            }
        });
        let (acc0, acc1) = accs.into_iter().unzip();
        // per half: k INTTs, the k → l BConv, l NTTs and the pointwise pass
        let k = ext - l;
        let work = 2 * rows * ((k + l) * n.trailing_zeros() as usize + k * l + l);
        par::join(
            work,
            || self.mod_down_fast(&plan, &ks_ctx, acc0, l),
            || self.mod_down_fast(&plan, &ks_ctx, acc1, l),
        )
    }

    /// Divides an extended (`Q_l·P`) limb set by `P` on the fast path:
    /// only the `k` extension limbs are INTT'd (the BConv input), the
    /// converted correction comes back to evaluation form, and the
    /// subtract-and-scale runs pointwise in the evaluation domain with
    /// the plan's `P⁻¹` Shoup pairs — exact by NTT linearity, saving
    /// the `l` inverse transforms the reference pays — written over the
    /// correction limbs, which become the output. Input limbs are
    /// canonical evaluation-domain residues over the ks chain; they go
    /// back to the limb pool.
    fn mod_down_fast(
        &self,
        plan: &Arc<KsPlan>,
        ks_ctx: &Arc<RnsContext>,
        mut limbs: Vec<Vec<u64>>,
        l: usize,
    ) -> PolyBatch {
        let ctx = self.context();
        let n = ctx.params().n;
        let level_ctx = ctx.level_ctx(l).clone();
        let total = limbs.len();
        for (t, limb) in limbs.iter_mut().enumerate().take(total).skip(l) {
            let tables = &ks_ctx.tables()[t];
            for seg in limb.chunks_mut(n) {
                host_ntt::inverse_inplace(seg, tables);
            }
        }
        let p_slices: Vec<&[u64]> = limbs[l..].iter().map(|v| v.as_slice()).collect();
        let pool = level_ctx.pool();
        let mut cp: Vec<Vec<u64>> = (0..l).map(|_| pool.take(limbs[0].len())).collect();
        plan.mod_down.convert_slices_into(&p_slices, &mut cp);
        for (i, limb) in cp.iter_mut().enumerate() {
            let tables = &level_ctx.tables()[i];
            for seg in limb.chunks_mut(n) {
                host_ntt::forward_inplace(seg, tables);
            }
        }
        for (i, (c, cp)) in limbs.iter().zip(&mut cp).enumerate() {
            let (p_inv, p_inv_shoup) = plan.p_inv.get(i);
            // BConv output is already < q_i — subtract directly, into
            // the correction limb, which becomes the output limb
            small_ntt::sub_mul_const(c, cp, p_inv, p_inv_shoup, level_ctx.moduli()[i]);
        }
        ks_ctx.pool().give(limbs);
        PolyBatch::from_limbs(level_ctx, cp, Domain::Evaluation)
    }

    /// The pre-plan key-switch oracle: per-call kernel compilation,
    /// full `l+k`-limb NTT of every extended digit, strict add-reduce
    /// per digit. Kept as the differential reference for
    /// [`Evaluator::key_switch`]; `tests/ks_fast.rs` pins the two
    /// bit-identical and `tests/speed_ratios.rs` races them.
    pub fn key_switch_reference(
        &self,
        d: &PolyBatch,
        key: &SwitchingKey,
    ) -> (PolyBatch, PolyBatch) {
        let ctx = self.context();
        let l = d.level_count();
        let batch = d.batch();
        let n = ctx.params().n;
        let ks_ctx = ctx.ks_ctx(l).clone();
        let qs: Vec<u64> = ctx.q_moduli()[..l].to_vec();
        let ps: Vec<u64> = ctx.p_moduli().to_vec();
        let big_l = ctx.params().limbs;

        let mut d_coeff = d.clone();
        d_coeff.to_coefficient();

        let mut acc0 = PolyBatch::zero_evaluation(ks_ctx.clone(), batch);
        let mut acc1 = acc0.clone();

        for j in 0..ctx.digit_count(l) {
            let range = ctx.digit_range(j, l);
            let digit_moduli: Vec<u64> = qs[range.clone()].to_vec();
            // target moduli: all level moduli outside the digit, then P.
            let mut other: Vec<u64> = Vec::new();
            let mut other_idx: Vec<usize> = Vec::new();
            for (i, &q) in qs.iter().enumerate() {
                if !range.contains(&i) {
                    other.push(q);
                    other_idx.push(i);
                }
            }
            for (pi, &p) in ps.iter().enumerate() {
                other.push(p);
                other_idx.push(l + pi);
            }
            // fast base extension of the digit, all batch rows fused
            let digit_limbs: Vec<Vec<u64>> =
                range.clone().map(|i| d_coeff.limbs()[i].clone()).collect();
            let converted: Vec<Vec<u64>> = if other.is_empty() {
                Vec::new()
            } else {
                let table = RnsBasis::new(digit_moduli.clone()).bconv_table(&other);
                let kernel = BconvKernel::compile(&table, n, ModRed::Montgomery);
                kernel.convert_reference(&digit_limbs)
            };
            // assemble the extended batch over the ks chain (the digit
            // limbs move in — they have no further reader this digit)
            let mut ext_limbs: Vec<Vec<u64>> = vec![Vec::new(); l + ps.len()];
            for (limb, i) in digit_limbs.into_iter().zip(range.clone()) {
                ext_limbs[i] = limb;
            }
            for (limb, &target_slot) in converted.into_iter().zip(&other_idx) {
                ext_limbs[target_slot] = limb;
            }
            let mut ext = PolyBatch::from_limbs(ks_ctx.clone(), ext_limbs, Domain::Coefficient);
            ext.to_evaluation();
            // select the key limbs for this level: q indices 0..l plus
            // the extension indices big_l..big_l+k of the global chain,
            // each repeated across the batch.
            let select = |limbs: &[Vec<u32>]| -> PolyBatch {
                let limbs = limbs[..l]
                    .iter()
                    .chain(&limbs[big_l..big_l + ps.len()])
                    .map(|limb| limb.iter().cycle().take(batch * n).map(|&x| u64::from(x)));
                PolyBatch::from_limbs(
                    ks_ctx.clone(),
                    limbs.map(Iterator::collect).collect(),
                    Domain::Evaluation,
                )
            };
            acc0 = acc0.add(&ext.mul_pointwise(&select(&key.digits[j].b)));
            acc1 = acc1.add(&ext.mul_pointwise(&select(&key.digits[j].a)));
        }
        (
            self.mod_down_batch_reference(&acc0, l),
            self.mod_down_batch_reference(&acc1, l),
        )
    }

    /// Divides an extended (`Q_l·P`) batch by `P`, returning a
    /// level-`l` batch (evaluation domain). Pre-plan reference
    /// dataflow: full INTT of all `l+k` limbs, per-call kernel
    /// compilation and `inv_mod`, coefficient-domain correction.
    fn mod_down_batch_reference(&self, c: &PolyBatch, l: usize) -> PolyBatch {
        let ctx = self.context();
        let n = ctx.params().n;
        let qs: Vec<u64> = ctx.q_moduli()[..l].to_vec();
        let ps: Vec<u64> = ctx.p_moduli().to_vec();
        let level_ctx = ctx.level_ctx(l).clone();
        let mut cc = c.clone();
        cc.to_coefficient();
        let p_limbs: Vec<Vec<u64>> = cc.limbs()[l..].to_vec();
        let table = RnsBasis::new(ps.clone()).bconv_table(&qs);
        let kernel = BconvKernel::compile(&table, n, ModRed::Montgomery);
        let cp = kernel.convert_reference(&p_limbs);
        let big_p = ctx.big_p();
        let mut new_limbs = Vec::with_capacity(l);
        for (i, &qi) in qs.iter().enumerate() {
            let p_inv = modops::inv_mod(big_p.mod_u64(qi), qi).expect("coprime");
            let limb: Vec<u64> = cc.limbs()[i]
                .iter()
                .zip(&cp[i])
                // BConv output is already reduced < q_i
                .map(|(&ci, &cpi)| modops::mul_mod(modops::sub_mod(ci, cpi, qi), p_inv, qi))
                .collect();
            new_limbs.push(limb);
        }
        let mut out = PolyBatch::from_limbs(level_ctx, new_limbs, Domain::Coefficient);
        out.to_evaluation();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::params::CkksParams;

    fn setup() -> (CkksContext, crate::keys::KeyPair) {
        let ctx = CkksContext::new(CkksParams::toy(), 99);
        let kp = ctx.generate_keys();
        (ctx, kp)
    }

    fn messages(ctx: &CkksContext, batch: usize, phase: f64) -> Vec<Vec<f64>> {
        (0..batch)
            .map(|b| {
                (0..ctx.slot_count())
                    .map(|i| 0.4 + ((i + b) as f64 * phase).sin() * 0.3)
                    .collect()
            })
            .collect()
    }

    fn limbs_eq(a: &Ciphertext, b: &Ciphertext) -> bool {
        a.c0.limbs() == b.c0.limbs() && a.c1.limbs() == b.c1.limbs() && a.level == b.level
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let (ctx, kp) = setup();
        let cts: Vec<Ciphertext> = messages(&ctx, 3, 0.21)
            .iter()
            .map(|m| ctx.encrypt(m, &kp.public))
            .collect();
        let bc = BatchedCiphertext::from_ciphertexts(&cts);
        assert_eq!(bc.entries.len(), 3);
        for (orig, back) in cts.iter().zip(bc.to_ciphertexts()) {
            assert!(limbs_eq(orig, &back));
            assert_eq!(orig.scale, back.scale);
        }
    }

    #[test]
    fn mult_batch_bit_exact_with_sequential() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let xs: Vec<Ciphertext> = messages(&ctx, 3, 0.17)
            .iter()
            .map(|m| ctx.encrypt(m, &kp.public))
            .collect();
        let ys: Vec<Ciphertext> = messages(&ctx, 3, 0.31)
            .iter()
            .map(|m| ctx.encrypt(m, &kp.public))
            .collect();
        let got = ev
            .mult_batch(
                &BatchedCiphertext::from_ciphertexts(&xs),
                &BatchedCiphertext::from_ciphertexts(&ys),
                &kp.relin,
            )
            .to_ciphertexts();
        for b in 0..3 {
            let want = ev.mult(&xs[b], &ys[b], &kp.relin);
            assert!(limbs_eq(&got[b], &want), "entry {b}");
            assert_eq!(got[b].scale, want.scale, "entry {b} scale");
        }
    }

    #[test]
    fn inner_product_reduces_in_rounds_when_the_digits_outnumber_the_accumulator() {
        // Eight one-limb digits of 31-bit primes: four raw products fit
        // a u64, so the inner product takes two accumulate-reduce
        // rounds — and must still match the strict per-digit oracle.
        let ctx = CkksContext::new(CkksParams::new(1 << 6, 8, 8, 31), 31);
        let q = ctx.q_moduli()[0];
        assert!(
            (u64::MAX / (q * q)) < 8,
            "the shape must force a second round"
        );
        let kp = ctx.generate_keys();
        let ev = Evaluator::new(&ctx);
        let ct = ctx.encrypt(&messages(&ctx, 1, 0.29)[0], &kp.public);
        for level in [8usize, 5] {
            let d = ev.mod_drop(&ct, level).c1;
            let fast = ev.key_switch(&d, &kp.relin);
            let reference = ev.key_switch_reference(&d, &kp.relin);
            assert_eq!(fast.0.limbs(), reference.0.limbs(), "level {level} out0");
            assert_eq!(fast.1.limbs(), reference.1.limbs(), "level {level} out1");
        }
        // Every residue at q − 1, the largest product and the largest
        // carried-in residue a round holds, in both key halves. Both
        // halves of the key are all q − 1 over the global chain.
        let n = ctx.params().n;
        let chain: Vec<u64> = ctx
            .q_moduli()
            .iter()
            .chain(ctx.p_moduli())
            .copied()
            .collect();
        let max_limbs = || -> Vec<Vec<u32>> {
            chain
                .iter()
                .map(|&q| vec![u32::try_from(q - 1).unwrap(); n])
                .collect()
        };
        let key = SwitchingKey {
            digits: (0..kp.relin.digits.len())
                .map(|_| crate::keys::SwitchingKeyDigit {
                    b: max_limbs(),
                    a: max_limbs(),
                })
                .collect(),
        };
        let perms = ctx.galois_eval_perm(ctx.galois_element(1));
        let max_poly = |c: &Arc<RnsContext>| {
            let limbs = c.moduli().iter().map(|&q| vec![q - 1; n]).collect();
            PolyBatch::from_limbs(c.clone(), limbs, Domain::Evaluation)
        };
        for level in [8usize, 5] {
            // d = −1, all q − 1 in evaluation form. σ_g(−1) = −1 and a
            // constant's base extensions are constants, so the gathered
            // read moves no residue and the reference still applies.
            let d = max_poly(ctx.level_ctx(level));
            let reference = ev.key_switch_reference(&d, &key);
            let digits = ev.ks_decompose(&d);
            // Then every extended digit residue at q − 1 as well, own
            // and converted: Σ_j (q − 1)² ≡ dnum, so both accumulators
            // must read dnum mod q before the mod-down.
            let ks_ctx = ctx.ks_ctx(level).clone();
            let plan = ctx.ks_plan(level).clone();
            let all_max = KsDigits {
                pool: ks_ctx.pool().clone(),
                converted: plan
                    .digits
                    .iter()
                    .map(|dp| {
                        dp.other_idx
                            .iter()
                            .map(|&t| vec![ks_ctx.moduli()[t] - 1; n])
                            .collect()
                    })
                    .collect(),
            };
            let dnum = plan.digits.len() as u64;
            let acc = PolyBatch::from_limbs(
                ks_ctx.clone(),
                ks_ctx.moduli().iter().map(|&q| vec![dnum % q; n]).collect(),
                Domain::Evaluation,
            );
            let want = ev.mod_down_batch_reference(&acc, level);
            for perm in [None, Some(perms.as_slice())] {
                let fast = ev.ks_apply(&d, &digits, &key, perm);
                let at = format!("level {level}, permuted {}", perm.is_some());
                assert_eq!(fast.0.limbs(), reference.0.limbs(), "{at}: out0");
                assert_eq!(fast.1.limbs(), reference.1.limbs(), "{at}: out1");
                let fast = ev.ks_apply(&d, &all_max, &key, perm);
                assert_eq!(fast.0.limbs(), want.limbs(), "{at}, all q - 1: out0");
                assert_eq!(fast.1.limbs(), want.limbs(), "{at}, all q - 1: out1");
            }
        }
    }

    /// Leaves `count` spare buffers of `q − 1` and arbitrary words on
    /// top of `ctx`'s limb pool, so the next `count` limbs an operator
    /// draws hold garbage. The returned batches hold as many buffers
    /// out, which lets the pool's bound admit the spares; drop them
    /// after the operator ran.
    fn dirty_pool(ctx: &CkksContext, count: usize) -> Vec<PolyBatch> {
        let c = ctx.level_ctx(1);
        let held = (0..count)
            .map(|_| PolyBatch::zero_evaluation(c.clone(), 1))
            .collect();
        let q = c.moduli()[0];
        let mut word = 0x9e37_79b9_7f4a_7c15_u64;
        for k in 0..count {
            let limb = (0..ctx.params().n)
                .map(|j| {
                    word = word
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    if (j + k) % 2 == 0 {
                        q - 1
                    } else {
                        word
                    }
                })
                .collect();
            drop(PolyBatch::from_limbs(
                c.clone(),
                vec![limb],
                Domain::Evaluation,
            ));
        }
        held
    }

    #[test]
    fn operators_on_a_dirty_pool_match_a_fresh_context_and_the_oracles() {
        // Each operator runs once on a fresh context and once on a
        // twin (same seed, so same keys and ciphertexts) whose pool was
        // just filled with garbage: a kernel that reads a recycled
        // buffer before writing all of it shows as a bit difference.
        // Enough garbage for every limb the largest operator draws.
        const GARBAGE: usize = 160;
        let shapes = [
            CkksParams::toy(),
            crate::ParamSet::B.params(),
            CkksParams::new(1 << 6, 8, 8, 31),
        ];
        for params in shapes {
            let results = |dirty: bool| {
                let ctx = CkksContext::new(params, 77);
                let kp = ctx.generate_keys();
                let rk1 = ctx.generate_rotation_key(&kp.secret, 1);
                let rk2 = ctx.generate_rotation_key(&kp.secret, 2);
                let ck = ctx.generate_conjugation_key(&kp.secret);
                let ev = Evaluator::new(&ctx);
                let ms = messages(&ctx, 2, 0.37);
                let a = ctx.encrypt(&ms[0], &kp.public);
                let b = ctx.encrypt(&ms[1], &kp.public);
                let mut out: Vec<(&str, Vec<Vec<u64>>)> = Vec::new();
                let mut record = |name, polys: &[&PolyBatch]| {
                    let limbs = polys.iter().flat_map(|p| p.limbs().to_vec()).collect();
                    out.push((name, limbs));
                };
                let garbage = || {
                    if dirty {
                        dirty_pool(&ctx, GARBAGE)
                    } else {
                        Vec::new()
                    }
                };
                let held = garbage();
                let prod = ev.mult(&a, &b, &kp.relin);
                drop(held);
                record("mult", &[&prod.c0, &prod.c1]);
                let held = garbage();
                let rot = ev.rotate(&a, 1, &rk1);
                drop(held);
                record("rotate", &[&rot.c0, &rot.c1]);
                let held = garbage();
                let conj = ev.conjugate(&a, &ck);
                drop(held);
                record("conjugate", &[&conj.c0, &conj.c1]);
                let held = garbage();
                let resc = ev.rescale(&a);
                drop(held);
                record("rescale", &[&resc.c0, &resc.c1]);
                let held = garbage();
                let dropped = ev.mod_drop(&a, 2);
                drop(held);
                record("mod_drop", &[&dropped.c0, &dropped.c1]);
                let held = garbage();
                let (k0, k1) = ev.key_switch(&a.c1, &kp.relin);
                drop(held);
                record("key_switch", &[&k0, &k1]);
                let held = garbage();
                let fan = ev.hoisted_rotations(&a, &[(1, &rk1), (2, &rk2)]);
                drop(held);
                record(
                    "hoisted_rotations",
                    &[&fan[0].c0, &fan[0].c1, &fan[1].c0, &fan[1].c1],
                );
                let held = garbage();
                let m = ctx.decrypt_to_poly(&prod, &kp.secret);
                let slots = ctx.decrypt(&prod, &kp.secret);
                drop(held);
                record("decrypt", &[&m]);
                out.push((
                    "decrypt slots",
                    vec![slots.iter().map(|v| v.to_bits()).collect()],
                ));
                // and the fast kernels against their oracles, on this pool
                let reference = ev.key_switch_reference(&a.c1, &kp.relin);
                let at = format!("N = {}, dirty {dirty}", params.n);
                let same = k0.limbs() == reference.0.limbs() && k1.limbs() == reference.1.limbs();
                assert!(same, "{at}: key_switch");
                let reference =
                    ev.rescale_batch_reference(&BatchedCiphertext::from_ciphertexts([&a]));
                assert!(limbs_eq(&resc, &reference.entries[0]), "{at}: rescale");
                out
            };
            let fresh = results(false);
            let dirty = results(true);
            for ((name, want), (_, got)) in fresh.iter().zip(&dirty) {
                assert!(
                    got == want,
                    "N = {}: {name} differs on a dirty pool",
                    params.n
                );
            }
        }
    }

    #[test]
    fn rotate_batch_bit_exact_with_sequential() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let rk = ctx.generate_rotation_key(&kp.secret, 1);
        let cts: Vec<Ciphertext> = messages(&ctx, 4, 0.13)
            .iter()
            .map(|m| ctx.encrypt(m, &kp.public))
            .collect();
        let got = ev
            .rotate_batch(&BatchedCiphertext::from_ciphertexts(&cts), 1, &rk)
            .to_ciphertexts();
        for (b, ct) in cts.iter().enumerate() {
            assert!(limbs_eq(&got[b], &ev.rotate(ct, 1, &rk)), "entry {b}");
        }
    }

    #[test]
    fn rescale_and_mod_drop_batch_bit_exact() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let cts: Vec<Ciphertext> = messages(&ctx, 2, 0.23)
            .iter()
            .map(|m| {
                let ct = ctx.encrypt(m, &kp.public);
                let pt = ctx.encode_at(m, ct.level, ctx.params().scale());
                ev.mult_plain(&ct, &pt, ctx.params().scale())
            })
            .collect();
        let bc = BatchedCiphertext::from_ciphertexts(&cts);
        let rescaled = ev.rescale_batch(&bc).to_ciphertexts();
        let dropped = ev.mod_drop_batch(&bc, 2).to_ciphertexts();
        for (b, ct) in cts.iter().enumerate() {
            assert!(limbs_eq(&rescaled[b], &ev.rescale(ct)), "rescale {b}");
            assert!(limbs_eq(&dropped[b], &ev.mod_drop(ct, 2)), "drop {b}");
        }
    }

    #[test]
    fn add_batch_decrypts_to_sums() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let ms = messages(&ctx, 2, 0.19);
        let cts: Vec<Ciphertext> = ms.iter().map(|m| ctx.encrypt(m, &kp.public)).collect();
        let bc = BatchedCiphertext::from_ciphertexts(&cts);
        let sum = ev.add_batch(&bc, &bc).to_ciphertexts();
        for (b, m) in ms.iter().enumerate() {
            let got = ctx.decrypt(&sum[b], &kp.secret);
            for (i, &v) in m.iter().enumerate() {
                assert!((got[i] - 2.0 * v).abs() < 1e-2, "entry {b} slot {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "share a level")]
    fn mixed_levels_rejected() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let m = messages(&ctx, 1, 0.11).remove(0);
        let a = ctx.encrypt(&m, &kp.public);
        let b = ev.mod_drop(&a, a.level - 1);
        let _ = BatchedCiphertext::from_ciphertexts(&[a, b]);
    }
}
