//! Homomorphic evaluation: the four backbone HE operators of the paper
//! (HE-Add, HE-Mult, Rescale, Rotate) plus hybrid key switching.
//!
//! Every operator has **one body** and two public forms. The `*_batch`
//! form holds the body: it takes any borrowed operand — a
//! [`&Ciphertext`](Ciphertext), a [`&BatchedCiphertext`](BatchedCiphertext)
//! or a [`CtView`] of either, each converted into the view at the
//! signature without copying a residue — and returns a
//! [`BatchedCiphertext`]. The eager form (`&Ciphertext → Ciphertext`)
//! is its batch-of-one call. A single ciphertext is the `batch = 1`
//! point of the paper's streamed batch dimension (Fig. 11b, §V-A), not
//! a different program, so batched ≡ eager holds by construction
//! (`tests/batched_equivalence.rs` still pins it per operator). The
//! key-switch and rescale kernels live in [`crate::batched`].

use crate::batched::{BatchedCiphertext, KsDigits};
use crate::ciphertext::{scales_agree, Ciphertext, CtView};
use crate::context::CkksContext;
use crate::keys::SwitchingKey;
use cross_poly::rns_poly::RnsPoly;
use cross_poly::PolyBatch;

/// Homomorphic operator implementations over a [`CkksContext`].
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'a> {
    ctx: &'a CkksContext,
}

/// The hoisted (rotation-independent) prefix of a Galois fan-out,
/// ready for [`Evaluator::hoisted_rotate`]: both components in
/// evaluation form plus the digit decomposition of `c1` — every
/// digit base-extended over the `Q_l·P` chain and forward-transformed
/// ([`Evaluator::hoist_decompose`]). Per rotation only index gathers,
/// the key inner product and the mod-down remain.
///
/// Holds `dnum·(l+k) − l` converted limbs of `N` words beside the
/// ciphertext: 23 limbs (1.5 MB) for Set B at level 7, 104 MB for
/// Set D at top level.
#[derive(Debug, Clone)]
pub struct HoistedDecomposition {
    c0: PolyBatch,
    c1: PolyBatch,
    digits: KsDigits,
    /// Level of the source ciphertext.
    pub level: usize,
    /// Scale of the source ciphertext.
    pub scale: f64,
}

impl<'a> Evaluator<'a> {
    /// Binds an evaluator to a context.
    pub fn new(ctx: &'a CkksContext) -> Self {
        Self { ctx }
    }

    /// The bound context (the `cross_sched` replay executor encodes
    /// plaintext constants through it).
    pub fn context(&self) -> &'a CkksContext {
        self.ctx
    }

    /// Drops ciphertext limbs down to `level` (plain modulus reduction;
    /// scale is unchanged). Truncates straight to the target level's
    /// context — one allocation per polynomial regardless of how many
    /// levels are dropped.
    pub fn mod_drop(&self, ct: &Ciphertext, level: usize) -> Ciphertext {
        self.mod_drop_batch(ct, level).into_single()
    }

    /// Batched modulus drop to `level` (scales unchanged).
    pub fn mod_drop_batch<'c>(&self, ct: impl Into<CtView<'c>>, level: usize) -> BatchedCiphertext {
        let ct = ct.into();
        assert!(level >= 1 && level <= ct.level, "cannot raise levels");
        let new_ctx = self.ctx.level_ctx(level).clone();
        BatchedCiphertext {
            c0: ct.c0.truncate_to(new_ctx.clone()),
            c1: ct.c1.truncate_to(new_ctx),
            level,
            scales: ct.scales.to_vec(),
        }
    }

    /// Runs `f` on both operands at their lower common level. An
    /// operand already there is borrowed as it is; only a higher one
    /// is truncated.
    fn with_aligned<R>(&self, a: CtView, b: CtView, f: impl FnOnce(CtView, CtView) -> R) -> R {
        assert_eq!(a.scales.len(), b.scales.len(), "batch size mismatch");
        let level = a.level.min(b.level);
        let (dropped_a, dropped_b);
        let a = if a.level == level {
            a
        } else {
            dropped_a = self.mod_drop_batch(a, level);
            CtView::from(&dropped_a)
        };
        let b = if b.level == level {
            b
        } else {
            dropped_b = self.mod_drop_batch(b, level);
            CtView::from(&dropped_b)
        };
        f(a, b)
    }

    /// HE-Add.
    ///
    /// # Panics
    /// Panics if scales diverge by more than 1 % (mismatched scales
    /// silently corrupt CKKS messages; sub-percent drift from unequal
    /// rescale moduli is the approximation CKKS tolerates by design).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.add_batch(a, b).into_single()
    }

    /// Batched HE-Add (per-entry scale check).
    pub fn add_batch<'c>(
        &self,
        a: impl Into<CtView<'c>>,
        b: impl Into<CtView<'c>>,
    ) -> BatchedCiphertext {
        self.linear(a.into(), b.into(), PolyBatch::add)
    }

    /// HE-Sub. Same contract as [`Evaluator::add`]: operands align to
    /// the lower level, scales must agree within the 1 % CKKS drift
    /// tolerance.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.sub_batch(a, b).into_single()
    }

    /// Batched HE-Sub (per-entry scale check).
    pub fn sub_batch<'c>(
        &self,
        a: impl Into<CtView<'c>>,
        b: impl Into<CtView<'c>>,
    ) -> BatchedCiphertext {
        self.linear(a.into(), b.into(), PolyBatch::sub)
    }

    /// The component-wise operators: `op` on both components at the
    /// aligned level.
    fn linear(
        &self,
        a: CtView,
        b: CtView,
        op: fn(&PolyBatch, &PolyBatch) -> PolyBatch,
    ) -> BatchedCiphertext {
        self.with_aligned(a, b, |a, b| {
            for (sa, sb) in a.scales.iter().zip(b.scales) {
                assert!(scales_agree(*sa, *sb), "scale mismatch: {sa} vs {sb}");
            }
            BatchedCiphertext {
                c0: op(a.c0, b.c0),
                c1: op(a.c1, b.c1),
                level: a.level,
                scales: a.scales.to_vec(),
            }
        })
    }

    /// Plaintext addition (plaintext encoded at the ciphertext's level
    /// and scale, evaluation domain). `pt_scale` is the scale the
    /// plaintext was *encoded* at.
    ///
    /// # Panics
    /// Panics if `pt_scale` diverges from the ciphertext's scale by
    /// more than the 1 % CKKS drift tolerance: adding a plaintext
    /// encoded at the wrong scale does not fail loudly on its own — it
    /// silently corrupts the message (the deep-chain footgun this
    /// guard exists for; see DESIGN.md §13).
    pub fn add_plain(&self, ct: &Ciphertext, pt: &RnsPoly, pt_scale: f64) -> Ciphertext {
        self.add_plain_batch(ct, pt, pt_scale).into_single()
    }

    /// Batched plaintext addition: one plaintext broadcast across every
    /// entry, each entry's scale checked against `pt_scale`.
    pub fn add_plain_batch<'c>(
        &self,
        ct: impl Into<CtView<'c>>,
        pt: &RnsPoly,
        pt_scale: f64,
    ) -> BatchedCiphertext {
        let ct = ct.into();
        assert_eq!(
            pt.level_count(),
            ct.level,
            "encode the plaintext at ct's level"
        );
        for s in ct.scales {
            assert!(
                scales_agree(*s, pt_scale),
                "plaintext scale mismatch: ct at {s}, plaintext encoded at {pt_scale}"
            );
        }
        BatchedCiphertext {
            c0: ct.c0.add_poly(pt),
            c1: ct.c1.clone(),
            level: ct.level,
            scales: ct.scales.to_vec(),
        }
    }

    /// Plaintext multiplication; the result's scale is the product
    /// (rescale afterwards to restore it).
    ///
    /// # Panics
    /// Panics on a non-finite or non-positive `pt_scale`, and when the
    /// product scale would overflow the remaining modulus budget at
    /// this level (`ct.scale · pt_scale ≥ Q_level / 2`): past that
    /// point the scaled message wraps mod `Q` and every later op
    /// silently mis-tracks.
    pub fn mult_plain(&self, ct: &Ciphertext, pt: &RnsPoly, pt_scale: f64) -> Ciphertext {
        self.mult_plain_batch(ct, pt, pt_scale).into_single()
    }

    /// Batched ciphertext × plaintext multiply: one plaintext
    /// (evaluation domain, encoded at the batch level) broadcast
    /// across every entry; result scales are `scales[b] · pt_scale`.
    pub fn mult_plain_batch<'c>(
        &self,
        ct: impl Into<CtView<'c>>,
        pt: &RnsPoly,
        pt_scale: f64,
    ) -> BatchedCiphertext {
        let ct = ct.into();
        assert_eq!(
            pt.level_count(),
            ct.level,
            "encode the plaintext at ct's level"
        );
        assert!(
            pt_scale.is_finite() && pt_scale > 0.0,
            "plaintext scale must be a positive finite value, got {pt_scale}"
        );
        let budget: f64 = self.ctx.q_moduli()[..ct.level]
            .iter()
            .map(|&q| q as f64)
            .product();
        for s in ct.scales {
            let product = s * pt_scale;
            assert!(
                product.is_finite() && product < budget / 2.0,
                "scale overflow: ct.scale {s} × pt_scale {pt_scale} exceeds the \
                 level-{} modulus budget {budget:e}",
                ct.level
            );
        }
        BatchedCiphertext {
            c0: ct.c0.mul_pointwise_poly(pt),
            c1: ct.c1.mul_pointwise_poly(pt),
            level: ct.level,
            scales: ct.scales.iter().map(|s| s * pt_scale).collect(),
        }
    }

    /// HE-Mult: tensor product, relinearization with the `s²` switching
    /// key, then one rescale.
    pub fn mult(&self, a: &Ciphertext, b: &Ciphertext, relin: &SwitchingKey) -> Ciphertext {
        self.mult_batch(a, b, relin).into_single()
    }

    /// Batched HE-Mult: fused tensor products, one batched key switch,
    /// one batched rescale.
    pub fn mult_batch<'c>(
        &self,
        a: impl Into<CtView<'c>>,
        b: impl Into<CtView<'c>>,
        relin: &SwitchingKey,
    ) -> BatchedCiphertext {
        self.with_aligned(a.into(), b.into(), |a, b| {
            let d0 = a.c0.mul_pointwise(b.c0);
            let d1 = a.c0.mul_pointwise_sum(b.c1, a.c1, b.c0);
            let d2 = a.c1.mul_pointwise(b.c1);
            let (mut k0, mut k1) = self.key_switch(&d2, relin);
            k0.add_assign(&d0);
            k1.add_assign(&d1);
            let ct = BatchedCiphertext {
                c0: k0,
                c1: k1,
                level: a.level,
                scales: a.scales.iter().zip(b.scales).map(|(x, y)| x * y).collect(),
            };
            self.rescale_batch(&ct)
        })
    }

    /// Rescale: divides by the last modulus and drops one limb
    /// (`1 INTT + (l-1) NTT` worth of domain conversions — the kernel
    /// mix of paper Fig. 14).
    ///
    /// # Panics
    /// Panics at level 1 (no limb left to drop).
    pub fn rescale(&self, ct: &Ciphertext) -> Ciphertext {
        self.rescale_batch(ct).into_single()
    }

    /// HE-Rotate by `steps` slots (Galois automorphism + key switch):
    /// the digit decomposition of `c1`, then the Galois tail a hoisted
    /// fan-out also runs — a lone rotate *is* [`Evaluator::
    /// hoist_decompose`] followed by [`Evaluator::hoisted_rotate`], so
    /// the two stay bit-identical by construction.
    pub fn rotate(&self, ct: &Ciphertext, steps: usize, rot_key: &SwitchingKey) -> Ciphertext {
        self.rotate_batch(ct, steps, rot_key).into_single()
    }

    /// Batched HE-Rotate by `steps` slots: one batched decomposition
    /// and one batched Galois tail.
    pub fn rotate_batch<'c>(
        &self,
        ct: impl Into<CtView<'c>>,
        steps: usize,
        rot_key: &SwitchingKey,
    ) -> BatchedCiphertext {
        self.galois(ct.into(), self.ctx.galois_element(steps), rot_key)
    }

    /// Slot-wise complex conjugation (`σ_{2N-1}` + key switch with the
    /// conjugation key).
    pub fn conjugate(&self, ct: &Ciphertext, conj_key: &SwitchingKey) -> Ciphertext {
        self.conjugate_batch(ct, conj_key).into_single()
    }

    /// Batched slot-wise complex conjugation.
    pub fn conjugate_batch<'c>(
        &self,
        ct: impl Into<CtView<'c>>,
        conj_key: &SwitchingKey,
    ) -> BatchedCiphertext {
        let g = 2 * self.ctx.params().n as u64 - 1;
        self.galois(ct.into(), g, conj_key)
    }

    /// A whole Galois operation: decompose, then the shared tail.
    fn galois(&self, ct: CtView, g: u64, key: &SwitchingKey) -> BatchedCiphertext {
        self.galois_tail(ct, &self.ks_decompose(ct.c1), g, key)
    }

    /// Hoists the rotation-independent prefix of a Galois operation —
    /// the whole digit decomposition of `c1`, what
    /// `costs::HOIST_DECOMP` charges: its inverse transform, the
    /// per-digit base extensions, and the forward NTTs of the extended
    /// digit limbs. Every rotation sharing the source ciphertext reuses
    /// it; per additional rotation no BConv of a ciphertext digit and
    /// no forward NTT outside the mod-down runs.
    ///
    /// The decomposition is of the **un-rotated** `c1`: each rotation
    /// then permutes the extended digits (raise, then permute — the
    /// textbook hoisting order). That is a valid key switch of
    /// `σ_g(c1)`: `σ_g` is a ring automorphism of `Z[x]/(x^N+1)` that
    /// only moves and negates coefficients, so `σ_g` of a digit's
    /// small lift `d̃_j = d_j + u·Q_j` (`|u| ≤ α`) is the equally small
    /// lift `σ_g(d_j) + σ_g(u)·Q_j` of the rotated digit, and in
    /// evaluation form `σ_g` is the exact index gather of
    /// [`CkksContext::galois_eval_perm`]. It is not the *same bits* as
    /// extending the rotated digit (fast BConv's overshoot `u` does not
    /// commute with the sign flips), which is why every Galois path of
    /// this crate runs this one order (DESIGN.md §12).
    pub fn hoist_decompose(&self, ct: &Ciphertext) -> HoistedDecomposition {
        let ct = CtView::from(ct);
        HoistedDecomposition {
            c0: ct.c0.clone(),
            c1: ct.c1.clone(),
            digits: self.ks_decompose(ct.c1),
            level: ct.level,
            scale: ct.scales[0],
        }
    }

    /// One rotation off a hoisted decomposition: the Galois tail alone.
    /// Bit-identical to [`Evaluator::rotate`] on the source ciphertext.
    pub fn hoisted_rotate(
        &self,
        h: &HoistedDecomposition,
        steps: usize,
        rot_key: &SwitchingKey,
    ) -> Ciphertext {
        let source = CtView {
            c0: &h.c0,
            c1: &h.c1,
            level: h.level,
            scales: std::slice::from_ref(&h.scale),
        };
        self.galois_tail(source, &h.digits, self.ctx.galois_element(steps), rot_key)
            .into_single()
    }

    /// A rotation fan-out over one ciphertext: decomposes `c1` once,
    /// then applies each `(steps, key)` rotation's Galois tail off the
    /// borrowed source. Bit-identical to `k` independent
    /// [`Evaluator::rotate`] calls.
    pub fn hoisted_rotations(
        &self,
        ct: &Ciphertext,
        rotations: &[(usize, &SwitchingKey)],
    ) -> Vec<Ciphertext> {
        let ct = CtView::from(ct);
        let digits = self.ks_decompose(ct.c1);
        rotations
            .iter()
            .map(|&(steps, key)| {
                self.galois_tail(ct, &digits, self.ctx.galois_element(steps), key)
                    .into_single()
            })
            .collect()
    }

    /// The one Galois tail (`Automorphism`, `KeyInnerProduct`,
    /// `ModDown`): `σ_g` as the cached evaluation-domain index gather
    /// (`NTT(σ_g(c)) = π_g(NTT(c))`, exact — zero transforms), read
    /// into the key inner product for the extended digits of `c1` and
    /// into the sum that adds `c0` to the switched `k0`.
    fn galois_tail(
        &self,
        ct: CtView,
        digits: &KsDigits,
        g: u64,
        key: &SwitchingKey,
    ) -> BatchedCiphertext {
        let perms = self.ctx.galois_eval_perm(g);
        let (mut k0, k1) = self.ks_apply(ct.c1, digits, key, Some(&perms));
        k0.add_gathered(ct.c0, &perms);
        BatchedCiphertext {
            c0: k0,
            c1: k1,
            level: ct.level,
            scales: ct.scales.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn setup() -> (CkksContext, crate::keys::KeyPair) {
        let ctx = CkksContext::new(CkksParams::toy(), 123);
        let kp = ctx.generate_keys();
        (ctx, kp)
    }

    fn msg_a(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.5 + (i as f64 * 0.37).sin() * 0.4)
            .collect()
    }

    fn msg_b(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.3 + (i as f64 * 0.11).cos() * 0.5)
            .collect()
    }

    #[test]
    fn he_add() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let (a, b) = (msg_a(ctx.slot_count()), msg_b(ctx.slot_count()));
        let ca = ctx.encrypt(&a, &kp.public);
        let cb = ctx.encrypt(&b, &kp.public);
        let sum = ev.add(&ca, &cb);
        let got = ctx.decrypt(&sum, &kp.secret);
        for i in 0..a.len() {
            assert!((got[i] - (a[i] + b[i])).abs() < 1e-3, "slot {i}");
        }
    }

    #[test]
    fn he_sub() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let (a, b) = (msg_a(ctx.slot_count()), msg_b(ctx.slot_count()));
        let ca = ctx.encrypt(&a, &kp.public);
        let cb = ctx.encrypt(&b, &kp.public);
        let got = ctx.decrypt(&ev.sub(&ca, &cb), &kp.secret);
        for i in 0..a.len() {
            assert!((got[i] - (a[i] - b[i])).abs() < 1e-3, "slot {i}");
        }
    }

    #[test]
    fn he_mult_with_relin_and_rescale() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let (a, b) = (msg_a(ctx.slot_count()), msg_b(ctx.slot_count()));
        let ca = ctx.encrypt(&a, &kp.public);
        let cb = ctx.encrypt(&b, &kp.public);
        let prod = ev.mult(&ca, &cb, &kp.relin);
        assert_eq!(prod.level, ctx.params().limbs - 1);
        let got = ctx.decrypt(&prod, &kp.secret);
        for i in 0..a.len() {
            assert!(
                (got[i] - a[i] * b[i]).abs() < 5e-2,
                "slot {i}: {} vs {}",
                got[i],
                a[i] * b[i]
            );
        }
    }

    #[test]
    fn he_mult_depth_two() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let a = msg_a(ctx.slot_count());
        let ca = ctx.encrypt(&a, &kp.public);
        let sq = ev.mult(&ca, &ca, &kp.relin);
        let quad = ev.mult(&sq, &sq, &kp.relin);
        let got = ctx.decrypt(&quad, &kp.secret);
        for i in 0..a.len() {
            let want = a[i].powi(4);
            assert!(
                (got[i] - want).abs() < 0.2,
                "slot {i}: {} vs {want}",
                got[i]
            );
        }
    }

    #[test]
    fn mult_plain_then_rescale() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let (a, w) = (msg_a(ctx.slot_count()), msg_b(ctx.slot_count()));
        let ca = ctx.encrypt(&a, &kp.public);
        let pt = ctx.encode_at(&w, ca.level, ctx.params().scale());
        let prod = ev.rescale(&ev.mult_plain(&ca, &pt, ctx.params().scale()));
        let got = ctx.decrypt(&prod, &kp.secret);
        for i in 0..a.len() {
            assert!((got[i] - a[i] * w[i]).abs() < 1e-2, "slot {i}");
        }
    }

    #[test]
    fn add_plain() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let (a, w) = (msg_a(ctx.slot_count()), msg_b(ctx.slot_count()));
        let ca = ctx.encrypt(&a, &kp.public);
        let pt = ctx.encode_at(&w, ca.level, ca.scale);
        let got = ctx.decrypt(&ev.add_plain(&ca, &pt, ca.scale), &kp.secret);
        for i in 0..a.len() {
            assert!((got[i] - (a[i] + w[i])).abs() < 1e-3, "slot {i}");
        }
    }

    #[test]
    #[should_panic(expected = "plaintext scale mismatch")]
    fn add_plain_rejects_scale_mismatch() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let a = msg_a(ctx.slot_count());
        let ca = ctx.encrypt(&a, &kp.public);
        // Encoded at twice the ciphertext scale: silently adding it
        // would halve the contributed message. The guard must trip.
        let wrong = ca.scale * 2.0;
        let pt = ctx.encode_at(&vec![0.5; ctx.slot_count()], ca.level, wrong);
        let _ = ev.add_plain(&ca, &pt, wrong);
    }

    #[test]
    #[should_panic(expected = "scale overflow")]
    fn mult_plain_rejects_scale_overflow() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let a = msg_a(ctx.slot_count());
        let mut ca = ctx.encrypt(&a, &kp.public);
        ca = ev.mod_drop(&ca, 1);
        // At level 1 the budget is a single 28-bit prime; a product of
        // two ~2^28 scales wraps mod q0 and corrupts the message.
        let pt = ctx.encode_at(&vec![1.0; ctx.slot_count()], ca.level, ctx.params().scale());
        let _ = ev.mult_plain(&ca, &pt, ctx.params().scale());
    }

    #[test]
    fn rotate_by_one() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let a = msg_a(ctx.slot_count());
        let rk = ctx.generate_rotation_key(&kp.secret, 1);
        let ca = ctx.encrypt(&a, &kp.public);
        let rot = ev.rotate(&ca, 1, &rk);
        let got = ctx.decrypt(&rot, &kp.secret);
        let s = ctx.slot_count();
        for i in 0..s {
            let want = a[(i + 1) % s];
            assert!(
                (got[i] - want).abs() < 5e-2,
                "slot {i}: {} vs {want}",
                got[i]
            );
        }
    }

    #[test]
    fn rotate_composes() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let a = msg_a(ctx.slot_count());
        let rk1 = ctx.generate_rotation_key(&kp.secret, 1);
        let rk2 = ctx.generate_rotation_key(&kp.secret, 2);
        let ca = ctx.encrypt(&a, &kp.public);
        let twice = ev.rotate(&ev.rotate(&ca, 1, &rk1), 1, &rk1);
        let once2 = ev.rotate(&ca, 2, &rk2);
        let g1 = ctx.decrypt(&twice, &kp.secret);
        let g2 = ctx.decrypt(&once2, &kp.secret);
        for i in 0..ctx.slot_count() {
            assert!((g1[i] - g2[i]).abs() < 1e-1, "slot {i}");
        }
    }

    /// A ciphertext of zeros at `level` — decomposition counts do not
    /// depend on the residues, and no key is needed to build one.
    fn zero_ct(ctx: &CkksContext, level: usize) -> Ciphertext {
        let zero = PolyBatch::zero_evaluation(ctx.level_ctx(level).clone(), 1);
        Ciphertext {
            c0: zero.clone(),
            c1: zero,
            level,
            scale: ctx.params().scale(),
        }
    }

    /// ROADMAP 1(c), count conformance: the forward NTTs a hoisted
    /// decomposition pays — one per converted limb it holds — against
    /// `HOIST_DECOMP`'s `ntt` count, `dnum·(ext − α)`.
    #[test]
    fn hoisted_decomposition_holds_the_modeled_ntt_count_at_top_level() {
        use crate::costs::HOIST_DECOMP;
        use crate::params::ParamSet;
        for (name, p) in [
            ("toy", CkksParams::toy()),
            ("Set A", ParamSet::A.params()),
            ("Set B", ParamSet::B.params()),
        ] {
            let ctx = CkksContext::new(p, 5);
            let ev = Evaluator::new(&ctx);
            let l = p.limbs;
            let held = ev
                .hoist_decompose(&zero_ct(&ctx, l))
                .digits
                .converted_limbs();
            let modeled = HOIST_DECOMP.counts(&p, l).ntt;
            // The model gives every digit α limbs; the host's last
            // digit is ragged when α does not divide L, and a digit
            // short by r limbs extends to r more.
            let ragged = ctx.digit_count(l) * p.digit_limbs() - l;
            assert_eq!(
                held,
                modeled + ragged,
                "{name}: host holds {held} converted limbs, HOIST_DECOMP charges {modeled} \
                 NTTs and the last digit is {ragged} limb(s) short of α"
            );
            if p.limbs.is_multiple_of(p.digit_limbs()) {
                assert_eq!(held, modeled, "{name}: even digits agree exactly");
            }
        }
        // Set B's 8 limbs in digits of 3 leave a last digit of 2.
        let p = ParamSet::B.params();
        assert_eq!(HOIST_DECOMP.counts(&p, 8).ntt, 24);
    }

    #[test]
    fn hoisted_decomposition_follows_the_host_digit_count_below_top_level() {
        use crate::costs::HOIST_DECOMP;
        let p = CkksParams::new(1 << 6, 8, 4, 28);
        let ctx = CkksContext::new(p, 6);
        let ev = Evaluator::new(&ctx);
        let k = p.special_limbs();
        for l in 1..p.limbs {
            let held = ev
                .hoist_decompose(&zero_ct(&ctx, l))
                .digits
                .converted_limbs();
            assert_eq!(
                held,
                ctx.digit_count(l) * (l + k) - l,
                "level {l}: every host digit extends to the rest of the chain"
            );
            if ctx.digit_count(l) < p.dnum {
                assert_ne!(
                    held,
                    HOIST_DECOMP.counts(&p, l).ntt,
                    "level {l}: ROADMAP deviation 1(c)(ii) — the model charges a \
                     level-independent {} digits, the host runs ctx.digit_count(l) = {}; \
                     if these now agree, the deviation is closed: update ROADMAP 1(c)",
                    p.dnum,
                    ctx.digit_count(l)
                );
            }
        }
    }

    #[test]
    fn a_fan_out_builds_exactly_one_decomposition() {
        use crate::batched::DECOMPOSITIONS;
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let ct = ctx.encrypt(&msg_a(ctx.slot_count()), &kp.public);
        let keys: Vec<SwitchingKey> = (1..=5)
            .map(|s| ctx.generate_rotation_key(&kp.secret, s))
            .collect();
        let rotations: Vec<(usize, &SwitchingKey)> = (1..=5).zip(&keys).collect();
        let built = |f: &dyn Fn()| {
            let before = DECOMPOSITIONS.with(|c| c.get());
            f();
            DECOMPOSITIONS.with(|c| c.get()) - before
        };
        assert_eq!(built(&|| drop(ev.hoisted_rotations(&ct, &rotations))), 1);
        let eager = || {
            rotations
                .iter()
                .for_each(|&(s, k)| drop(ev.rotate(&ct, s, k)))
        };
        assert_eq!(built(&eager), 5);
        let h = ev.hoist_decompose(&ct);
        let tails = || {
            rotations
                .iter()
                .for_each(|&(s, k)| drop(ev.hoisted_rotate(&h, s, k)))
        };
        assert_eq!(built(&tails), 0, "a tail decomposes nothing");
    }

    #[test]
    fn rescale_tracks_scale() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let a = msg_a(ctx.slot_count());
        let ca = ctx.encrypt(&a, &kp.public);
        let q_last = ctx.q_moduli()[ca.level - 1];
        let pt = ctx.encode_at(&vec![1.0; ctx.slot_count()], ca.level, ctx.params().scale());
        let r = ev.rescale(&ev.mult_plain(&ca, &pt, ctx.params().scale()));
        assert_eq!(r.level, ca.level - 1);
        assert!((r.scale - ca.scale * ctx.params().scale() / q_last as f64).abs() < 1.0);
    }

    #[test]
    fn mod_drop_preserves_message() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let a = msg_a(ctx.slot_count());
        let ca = ctx.encrypt(&a, &kp.public);
        let dropped = ev.mod_drop(&ca, 2);
        let got = ctx.decrypt(&dropped, &kp.secret);
        for i in 0..a.len() {
            assert!((got[i] - a[i]).abs() < 1e-3, "slot {i}");
        }
    }

    #[test]
    fn mod_drop_equals_iterative_drop() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let ca = ctx.encrypt(&msg_a(ctx.slot_count()), &kp.public);
        let direct = ev.mod_drop(&ca, 1);
        let mut c0 = ca.c0.clone();
        let mut c1 = ca.c1.clone();
        for l in (1..ca.level).rev() {
            let c = ctx.level_ctx(l).clone();
            c0 = c0.truncate_to(c.clone());
            c1 = c1.truncate_to(c);
        }
        assert_eq!(direct.c0.limbs(), c0.limbs());
        assert_eq!(direct.c1.limbs(), c1.limbs());
    }

    #[test]
    #[should_panic(expected = "scale mismatch")]
    fn add_rejects_scale_mismatch() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let a = msg_a(ctx.slot_count());
        let ca = ctx.encrypt(&a, &kp.public);
        let mut cb = ctx.encrypt(&a, &kp.public);
        cb.scale *= 2.0;
        let _ = ev.add(&ca, &cb);
    }
}
