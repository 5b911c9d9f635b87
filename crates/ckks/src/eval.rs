//! Homomorphic evaluation: the four backbone HE operators of the paper
//! (HE-Add, HE-Mult, Rescale, Rotate) plus hybrid key switching.
//!
//! Every operator has **one body**: the eager method, on a borrowed
//! [`Ciphertext`]. The `*_batch` forms ([`crate::batched`]) map that
//! body over the entries a [`crate::BatchedCiphertext`] holds, so
//! batched ≡ eager holds by construction (`tests/batched_equivalence.rs`
//! still pins it per operator). The paper's batch is the TPU's streamed
//! matmul dimension (Fig. 11b, §V-A); the cost model fuses it
//! (`cross_sched`'s `FusedBatch`), and no host body packs one. The
//! key-switch kernels live in [`crate::batched`].

use crate::batched::KsDigits;
use crate::ciphertext::{scales_agree, Ciphertext};
use crate::context::CkksContext;
use crate::keys::SwitchingKey;
use cross_math::{modops, par};
use cross_poly::ring::Domain;
use cross_poly::rns_poly::RnsPoly;
use cross_poly::{host_ntt, small_ntt, PolyBatch};
use std::borrow::Cow;

/// Homomorphic operator implementations over a [`CkksContext`].
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'a> {
    ctx: &'a CkksContext,
}

/// The hoisted (rotation-independent) prefix of a Galois fan-out,
/// ready for [`Evaluator::hoisted_rotate`]: a copy of the source
/// ciphertext plus the digit decomposition of its `c1` — every digit
/// base-extended over the `Q_l·P` chain and forward-transformed
/// ([`Evaluator::hoist_decompose`]). Per rotation only index gathers,
/// the key inner product and the mod-down remain.
///
/// Holds `dnum·(l+k) − l` converted limbs of `N` words beside the
/// ciphertext: 23 limbs (1.5 MB) for Set B at level 7, 104 MB for
/// Set D at top level.
#[derive(Debug, Clone)]
pub struct HoistedDecomposition {
    source: Ciphertext,
    digits: KsDigits,
}

/// The checks both plaintext operators share.
///
/// # Panics
/// Panics if `ct` or `pt` is not a batch of one, or `pt` is not at
/// `ct`'s level.
fn check_plain(ct: &Ciphertext, pt: &RnsPoly) {
    ct.assert_single();
    assert_eq!(pt.batch(), 1, "the plaintext must be a batch of one");
    assert_eq!(
        pt.level_count(),
        ct.level,
        "encode the plaintext at ct's level"
    );
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
        ct.assert_single();
        assert!(level >= 1 && level <= ct.level, "cannot raise levels");
        let new_ctx = self.ctx.level_ctx(level);
        Ciphertext {
            c0: ct.c0.truncate_to(new_ctx.clone()),
            c1: ct.c1.truncate_to(new_ctx.clone()),
            level,
            scale: ct.scale,
        }
    }

    /// Both operands at their lower common level. An operand already
    /// there is borrowed as it is; only a higher one is truncated.
    fn aligned<'c>(&self, a: &'c Ciphertext, b: &'c Ciphertext) -> [Cow<'c, Ciphertext>; 2] {
        let level = a.level.min(b.level);
        [a, b].map(|ct| {
            ct.assert_single();
            if ct.level == level {
                Cow::Borrowed(ct)
            } else {
                Cow::Owned(self.mod_drop(ct, level))
            }
        })
    }

    /// HE-Add.
    ///
    /// # Panics
    /// Panics if scales diverge by more than 1 % (mismatched scales
    /// silently corrupt CKKS messages; sub-percent drift from unequal
    /// rescale moduli is the approximation CKKS tolerates by design).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.linear(a, b, PolyBatch::add)
    }

    /// HE-Sub. Same contract as [`Evaluator::add`]: operands align to
    /// the lower level, scales must agree within the 1 % CKKS drift
    /// tolerance.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.linear(a, b, PolyBatch::sub)
    }

    /// The component-wise operators: `op` on both components at the
    /// aligned level.
    fn linear(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        op: fn(&PolyBatch, &PolyBatch) -> PolyBatch,
    ) -> Ciphertext {
        let [a, b] = self.aligned(a, b);
        let (sa, sb) = (a.scale, b.scale);
        assert!(scales_agree(sa, sb), "scale mismatch: {sa} vs {sb}");
        Ciphertext {
            c0: op(&a.c0, &b.c0),
            c1: op(&a.c1, &b.c1),
            level: a.level,
            scale: sa,
        }
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
        check_plain(ct, pt);
        let s = ct.scale;
        assert!(
            scales_agree(s, pt_scale),
            "plaintext scale mismatch: ct at {s}, plaintext encoded at {pt_scale}"
        );
        Ciphertext {
            c0: ct.c0.add(pt),
            c1: ct.c1.clone(),
            level: ct.level,
            scale: s,
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
        check_plain(ct, pt);
        assert!(
            pt_scale.is_finite() && pt_scale > 0.0,
            "plaintext scale must be a positive finite value, got {pt_scale}"
        );
        let budget: f64 = self.ctx.q_moduli()[..ct.level]
            .iter()
            .map(|&q| q as f64)
            .product();
        let (s, scale) = (ct.scale, ct.scale * pt_scale);
        assert!(
            scale.is_finite() && scale < budget / 2.0,
            "scale overflow: ct.scale {s} × pt_scale {pt_scale} exceeds the \
             level-{} modulus budget {budget:e}",
            ct.level
        );
        Ciphertext {
            c0: ct.c0.mul_pointwise(pt),
            c1: ct.c1.mul_pointwise(pt),
            level: ct.level,
            scale,
        }
    }

    /// HE-Mult: tensor product, relinearization with the `s²` switching
    /// key, then one rescale.
    pub fn mult(&self, a: &Ciphertext, b: &Ciphertext, relin: &SwitchingKey) -> Ciphertext {
        let [a, b] = self.aligned(a, b);
        let d0 = a.c0.mul_pointwise(&b.c0);
        let d1 = a.c0.mul_pointwise_sum(&b.c1, &a.c1, &b.c0);
        let d2 = a.c1.mul_pointwise(&b.c1);
        let (mut k0, mut k1) = self.key_switch(&d2, relin);
        k0.add_assign(&d0);
        k1.add_assign(&d1);
        self.rescale(&Ciphertext {
            c0: k0,
            c1: k1,
            level: a.level,
            scale: a.scale * b.scale,
        })
    }

    /// Rescale on the key-switching fast path: divides by the last
    /// modulus and drops one limb (`1 INTT + (l-1) NTT` worth of domain
    /// conversions — the kernel mix of paper Fig. 14). Only the dropped
    /// limb leaves the evaluation domain, instead of `l INTT + (l-1)
    /// NTT`; the surviving limbs are updated pointwise in evaluation
    /// form — exact by NTT linearity:
    /// `NTT((c_i − cl_i)·q_last⁻¹) = (NTT(c_i) − NTT(cl_i))·q_last⁻¹`
    /// since every map involved is an exact function mod `q_i` — and
    /// `q_last⁻¹ mod q_i` comes as a precomputed Shoup pair off the
    /// cached [`crate::ks_plan::KsPlan`]. Bit-exact with
    /// [`Evaluator::rescale_batch_reference`] (`tests/ks_fast.rs`).
    ///
    /// # Panics
    /// Panics at level 1 (no limb left to drop).
    pub fn rescale(&self, ct: &Ciphertext) -> Ciphertext {
        ct.assert_single();
        assert!(ct.level >= 2, "cannot rescale at level 1");
        let ctx = self.ctx;
        let l = ct.level;
        let n = ctx.params().n;
        let q_last = ctx.q_moduli()[l - 1];
        let plan = ctx.ks_plan(l).clone();
        let old_ctx = ctx.level_ctx(l).clone();
        let new_ctx = ctx.level_ctx(l - 1).clone();
        let rescale_poly = |p: &RnsPoly| -> RnsPoly {
            let pool = new_ctx.pool();
            // Ciphertext components live in evaluation form; the (rare)
            // coefficient-domain caller pays one conversion.
            let pe = p.in_domain(Domain::Evaluation);
            // The dropped limb is the only one that needs coefficients.
            let mut last = pool.copy_of(&pe.limbs()[l - 1]);
            host_ntt::inverse_inplace(&mut last, &old_ctx.tables()[l - 1]);
            let mut new_limbs = Vec::with_capacity(l - 1);
            for i in 0..l - 1 {
                let qi = new_ctx.moduli()[i];
                let (inv, inv_shoup) = plan.rescale_inv.get(i);
                // centered last-limb residue for round-to-nearest,
                // lifted into q_i and carried to evaluation form, then
                // subtracted and scaled where it lies
                let mut cl = pool.take(n);
                cl.extend(
                    last.iter()
                        .map(|&c| modops::from_signed(modops::to_signed(c, q_last), qi)),
                );
                host_ntt::forward_inplace(&mut cl, &new_ctx.tables()[i]);
                small_ntt::sub_mul_const(&pe.limbs()[i], &mut cl, inv, inv_shoup, qi);
                new_limbs.push(cl);
            }
            pool.give([last]);
            PolyBatch::from_limbs(new_ctx.clone(), new_limbs, Domain::Evaluation)
        };
        // per component: one INTT and l − 1 NTTs, then the pointwise pass
        let work = 2 * l * n * (n.trailing_zeros() as usize + 1);
        let (c0, c1) = par::join(work, || rescale_poly(&ct.c0), || rescale_poly(&ct.c1));
        Ciphertext {
            c0,
            c1,
            level: l - 1,
            scale: ct.scale / q_last as f64,
        }
    }

    /// HE-Rotate by `steps` slots (Galois automorphism + key switch):
    /// the digit decomposition of `c1`, then the Galois tail a hoisted
    /// fan-out also runs — a lone rotate *is* [`Evaluator::
    /// hoist_decompose`] followed by [`Evaluator::hoisted_rotate`], so
    /// the two stay bit-identical by construction.
    pub fn rotate(&self, ct: &Ciphertext, steps: usize, rot_key: &SwitchingKey) -> Ciphertext {
        self.galois(ct, self.ctx.galois_element(steps), rot_key)
    }

    /// Slot-wise complex conjugation (`σ_{2N-1}` + key switch with the
    /// conjugation key).
    pub fn conjugate(&self, ct: &Ciphertext, conj_key: &SwitchingKey) -> Ciphertext {
        let g = 2 * self.ctx.params().n as u64 - 1;
        self.galois(ct, g, conj_key)
    }

    /// A whole Galois operation: decompose, then the shared tail.
    fn galois(&self, ct: &Ciphertext, g: u64, key: &SwitchingKey) -> Ciphertext {
        ct.assert_single();
        self.galois_tail(ct, &self.ks_decompose(&ct.c1), g, key)
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
        ct.assert_single();
        let source = ct.clone();
        let digits = self.ks_decompose(&source.c1);
        HoistedDecomposition { source, digits }
    }

    /// One rotation off a hoisted decomposition: the Galois tail alone.
    /// Bit-identical to [`Evaluator::rotate`] on the source ciphertext.
    pub fn hoisted_rotate(
        &self,
        h: &HoistedDecomposition,
        steps: usize,
        rot_key: &SwitchingKey,
    ) -> Ciphertext {
        let g = self.ctx.galois_element(steps);
        self.galois_tail(&h.source, &h.digits, g, rot_key)
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
        ct.assert_single();
        let digits = self.ks_decompose(&ct.c1);
        rotations
            .iter()
            .map(|&(steps, key)| self.galois_tail(ct, &digits, self.ctx.galois_element(steps), key))
            .collect()
    }

    /// The one Galois tail (`Automorphism`, `KeyInnerProduct`,
    /// `ModDown`): `σ_g` as the cached evaluation-domain index gather
    /// (`NTT(σ_g(c)) = π_g(NTT(c))`, exact — zero transforms), read
    /// into the key inner product for the extended digits of `c1` and
    /// into the sum that adds `c0` to the switched `k0`.
    fn galois_tail(
        &self,
        ct: &Ciphertext,
        digits: &KsDigits,
        g: u64,
        key: &SwitchingKey,
    ) -> Ciphertext {
        let perms = self.ctx.galois_eval_perm(g);
        let (mut k0, c1) = self.ks_apply(&ct.c1, digits, key, Some(&perms));
        k0.add_gathered(&ct.c0, &perms);
        Ciphertext {
            c0: k0,
            c1,
            level: ct.level,
            scale: ct.scale,
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
