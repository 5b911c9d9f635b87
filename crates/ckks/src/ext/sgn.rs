//! Encrypted comparison: sign / compare / min / max / ReLU / threshold
//! from composed odd minimax polynomials (DESIGN.md §13).
//!
//! CKKS has no native branching, so `sign(x)` is approximated by a
//! composition `f∘…∘f∘g∘…∘g` of low-degree **odd** polynomials: each
//! `g` stretches the tiny-input region `[2⁻⁵, 1]` toward ±1, each `f`
//! flattens the neighbourhood of ±1 so errors contract
//! (Cheon–Kim–Kim, Asiacrypt 2020). Odd polynomials are the right
//! basis because `sign` itself is odd — even terms would only waste
//! levels without improving the approximation, and oddness makes the
//! approximation exact at 0.
//!
//! Every degree-7 step runs as one baby-step/giant-step chain
//! (`eval_odd7`) consuming exactly 4 levels, with scale-correcting
//! plaintext multiplies that steer the result back onto the step's
//! target scale — so a 5-step composition stays drift-free through 20
//! levels. The chains are written against the [`SgnBackend`] trait:
//! the eager backend executes them on real ciphertexts, while the
//! recording backend in `cross_sched::sgn` writes the *same* chain
//! into an `OpGraph` for scheduling, optimization and batched replay —
//! structurally identical programs, hence bit-exact by construction
//! (`tests/sgn_sched.rs`).

use crate::ciphertext::Ciphertext;
use crate::eval::Evaluator;
use crate::keys::SwitchingKey;

/// A degree-7 odd polynomial `c1·x + c3·x³ + c5·x⁵ + c7·x⁷`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OddPoly7 {
    /// Coefficient of `x`.
    pub c1: f64,
    /// Coefficient of `x³`.
    pub c3: f64,
    /// Coefficient of `x⁵`.
    pub c5: f64,
    /// Coefficient of `x⁷`.
    pub c7: f64,
}

impl OddPoly7 {
    /// Plain-arithmetic evaluation (the reference the encrypted chain
    /// is tested against).
    pub(crate) fn eval(&self, x: f64) -> f64 {
        let x2 = x * x;
        let x3 = x2 * x;
        ((self.c7 * x2 + self.c5) * x2 + self.c3) * x3 + self.c1 * x
    }
}

/// The error-contracting polynomial
/// `f3(x) = (35x − 35x³ + 21x⁵ − 5x⁷)/16`: fixes ±1, flattens their
/// neighbourhoods (`f3'(±1) = 0` to third order), so each application
/// roughly cubes the distance to ±1.
pub(crate) const F3: OddPoly7 = OddPoly7 {
    c1: 35.0 / 16.0,
    c3: -35.0 / 16.0,
    c5: 21.0 / 16.0,
    c7: -5.0 / 16.0,
};

/// The domain-stretching polynomial
/// `g3(x) = (4589x − 16577x³ + 25614x⁵ − 12860x⁷)/1024`: pushes small
/// inputs toward ±1 while mapping `[−1, 1]` into `[−0.9998, 0.9998]`
/// (so a following `f3`, safe on `[−1.03, 1.03]`, never sees an
/// out-of-domain value).
pub(crate) const G3: OddPoly7 = OddPoly7 {
    c1: 4589.0 / 1024.0,
    c3: -16577.0 / 1024.0,
    c5: 25614.0 / 1024.0,
    c7: -12860.0 / 1024.0,
};

/// Precision tier: how many `g3`/`f3` steps the sign chain composes.
///
/// | tier | composition        | depth | max error on `2⁻⁵ ≤ \|x\| ≤ 1` |
/// |------|--------------------|-------|-------------------------------|
/// | Low  | g3·g3·f3           | 12    | 7.8e-2 (α ≈ 3.7)              |
/// | Mid  | g3·g3·f3·f3        | 16    | 1.5e-4 (α ≈ 12.6)             |
/// | High | g3·g3·f3·f3·f3     | 20    | 2.0e-15 plain — in ciphertext |
/// |      |                    |       | the CKKS noise floor wins     |
///
/// `alpha()` reports the *guaranteed* (slightly conservative) bound
/// used by the property tests; the measured plain-arithmetic maxima
/// above are tighter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SgnTier {
    /// 3 steps, depth 12 — coarse gating (ReLU masks, argmax).
    Low,
    /// 4 steps, depth 16 — ~12 bits, the general-purpose default.
    Mid,
    /// 5 steps, depth 20 — precision limited only by scheme noise.
    High,
}

impl SgnTier {
    /// All tiers, for sweeps.
    pub const ALL: [SgnTier; 3] = [SgnTier::Low, SgnTier::Mid, SgnTier::High];

    /// The composed polynomial steps, applied left to right.
    pub(crate) fn composition(self) -> &'static [OddPoly7] {
        match self {
            SgnTier::Low => &[G3, G3, F3],
            SgnTier::Mid => &[G3, G3, F3, F3],
            SgnTier::High => &[G3, G3, F3, F3, F3],
        }
    }

    /// Multiplicative depth of the sign chain (4 levels per step).
    pub fn depth(self) -> usize {
        4 * self.composition().len()
    }

    /// Guaranteed `α`: `|sgn(x) − sign(x)| ≤ 2⁻ᵅ` for
    /// `2⁻⁵ ≤ |x| ≤ 1` in plain arithmetic.
    pub(crate) fn alpha(self) -> f64 {
        match self {
            SgnTier::Low => 3.5,
            SgnTier::Mid => 12.0,
            SgnTier::High => 40.0,
        }
    }

    /// `2⁻ᵅ`.
    pub fn error_bound(self) -> f64 {
        (-self.alpha()).exp2()
    }

    /// Minimum input level for a bare [`sign_chain`]: the chain ends at
    /// level ≥ 2 (level 1 leaves a single ~2²⁸ modulus, where a
    /// scale-Δ message wraps).
    pub fn min_sign_level(self) -> usize {
        self.depth() + 2
    }

    /// Minimum input level for the derived combinators
    /// (compare/min/max/relu/threshold): they spend up to 2 extra
    /// levels around the sign chain and their plaintext multiplies
    /// need ≥ 3 live limbs of scale budget.
    pub fn min_derived_level(self) -> usize {
        self.depth() + 4
    }

    /// Human-readable tier name (reports).
    pub fn label(self) -> &'static str {
        match self {
            SgnTier::Low => "low",
            SgnTier::Mid => "mid",
            SgnTier::High => "high",
        }
    }
}

/// Plain-arithmetic sign approximation — the exact real-number
/// function the encrypted chain computes (minus scheme noise).
pub fn sign_ref(tier: SgnTier, x: f64) -> f64 {
    tier.composition().iter().fold(x, |y, p| p.eval(y))
}

/// Plain reference for [`SignEvaluator::compare`].
pub fn compare_ref(tier: SgnTier, a: f64, b: f64) -> f64 {
    (sign_ref(tier, (a - b) / 2.0) + 1.0) / 2.0
}

/// Plain reference for [`SignEvaluator::max`].
pub fn max_ref(tier: SgnTier, a: f64, b: f64) -> f64 {
    let d = (a - b) / 2.0;
    (a + b) / 2.0 + d * sign_ref(tier, d)
}

/// Plain reference for [`SignEvaluator::min`].
pub fn min_ref(tier: SgnTier, a: f64, b: f64) -> f64 {
    let d = (a - b) / 2.0;
    (a + b) / 2.0 - d * sign_ref(tier, d)
}

/// Plain reference for [`SignEvaluator::relu`].
pub fn relu_ref(tier: SgnTier, x: f64) -> f64 {
    x * (sign_ref(tier, x) + 1.0) / 2.0
}

/// Plain reference for [`SignEvaluator::threshold`].
pub fn threshold_ref(tier: SgnTier, x: f64, t: f64) -> f64 {
    (sign_ref(tier, (x - t) / 2.0) + 1.0) / 2.0
}

/// The op surface the comparison chains are written against: real
/// ciphertexts (eager) or recorded virtual handles
/// (`cross_sched::sgn`). Implementors must track `(level, scale)`
/// with exactly the eager evaluator's arithmetic — the chains compute
/// their scale-correcting plaintext scales from these, so matching
/// them bit for bit is what makes eager and recorded runs identical.
pub trait SgnBackend {
    /// Ciphertext handle.
    type Ct: Clone;

    /// Remaining limbs of `ct`.
    fn level(&self, ct: &Self::Ct) -> usize;
    /// Tracked encoding scale of `ct`.
    fn scale(&self, ct: &Self::Ct) -> f64;
    /// The prime chain `q_0..` (index `l − 1` is dropped when
    /// rescaling from level `l`).
    fn modulus(&self, idx: usize) -> u64;

    /// HE-Add (operands align to the lower level; scales must agree).
    fn add(&mut self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct;
    /// HE-Sub.
    fn sub(&mut self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct;
    /// HE-Mult (tensor + relinearize + rescale; one level down).
    fn mult(&mut self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct;
    /// Multiply by the constant `value` encoded at `pt_scale`
    /// (level-preserving; rescale separately).
    fn plain_mult(&mut self, a: &Self::Ct, value: f64, pt_scale: f64) -> Self::Ct;
    /// Add the constant `value` encoded at `a`'s own scale.
    fn plain_add(&mut self, a: &Self::Ct, value: f64) -> Self::Ct;
    /// Rescale (one level down, scale divided by the dropped prime).
    fn rescale(&mut self, a: &Self::Ct) -> Self::Ct;
    /// Modulus drop to `level`.
    fn mod_drop(&mut self, a: &Self::Ct, level: usize) -> Self::Ct;
}

/// The prime dropped when rescaling *from* `level`, as `f64`.
fn dropped<B: SgnBackend>(bk: &B, level: usize) -> f64 {
    bk.modulus(level - 1) as f64
}

/// One degree-7 odd step as a baby-step/giant-step chain, consuming
/// exactly 4 levels and landing **exactly** on `target` scale.
///
/// Shape (input `x` at level `l`, scale `s`):
///
/// ```text
/// x2 = x·x                         l−1   baby steps
/// x3 = x2·x,  x4 = x2·x2           l−2
/// B  = c7·x3 + c5·x                l−3   giant-step factor, aimed so
/// m  = x4·B                        l−4   …m.scale == target
/// A  = c1·x + c3·x3                l−4   aimed at m's exact scale
/// out = m + A                      l−4
/// ```
///
/// The two plaintext-multiply groups are where scale management
/// happens: their `pt_scale`s are solved from the *tracked* operand
/// scales (`B_target = target·q_drop / x4.scale`, then `A` targets
/// `m`'s actual product scale), so composition never accumulates
/// drift no matter how unequal the prime chain is.
///
/// # Panics
/// Panics if `x` sits below level 6 (4 consumed + the plaintext
/// multiplies need ≥ 3 live limbs of scale budget).
pub(crate) fn eval_odd7<B: SgnBackend>(bk: &mut B, x: &B::Ct, p: &OddPoly7, target: f64) -> B::Ct {
    let l = bk.level(x);
    assert!(
        l >= 6,
        "odd7 step needs input level ≥ 6 (got {l}): 4 levels consumed \
         and the scale-correcting plain-mults need 3 live limbs"
    );
    let sx = bk.scale(x);

    // Baby steps: the odd powers x, x³ plus x⁴ as the giant step.
    let x2 = bk.mult(x, x); // l−1
    let x3 = bk.mult(&x2, x); // l−2
    let x4 = bk.mult(&x2, &x2); // l−2

    // Giant-step factor B = c7·x³ + c5·x at l−3, aimed so that
    // m = x4·B rescales exactly onto `target`.
    let b_target = target * dropped(bk, l - 3) / bk.scale(&x4);
    let q_b = dropped(bk, l - 2);
    let x_b = bk.mod_drop(x, l - 2);
    let t7 = bk.plain_mult(&x3, p.c7, b_target * q_b / bk.scale(&x3));
    let t7 = bk.rescale(&t7);
    let t5 = bk.plain_mult(&x_b, p.c5, b_target * q_b / sx);
    let t5 = bk.rescale(&t5);
    let b_sum = bk.add(&t7, &t5);
    let m = bk.mult(&x4, &b_sum); // l−4, scale == target (±f64 ulps)

    // Linear tail A = c1·x + c3·x³, aimed at m's *actual* scale so the
    // final add is exact.
    let a_target = bk.scale(&m);
    let q_a = dropped(bk, l - 3);
    let x_a = bk.mod_drop(x, l - 3);
    let x3_a = bk.mod_drop(&x3, l - 3);
    let t1 = bk.plain_mult(&x_a, p.c1, a_target * q_a / sx);
    let t1 = bk.rescale(&t1);
    let t3 = bk.plain_mult(&x3_a, p.c3, a_target * q_a / bk.scale(&x3));
    let t3 = bk.rescale(&t3);
    let a_sum = bk.add(&t1, &t3);
    bk.add(&m, &a_sum)
}

/// The full sign chain: tier's composition applied left to right, each
/// step re-targeted at the running scale (drift-free end to end).
/// Consumes `tier.depth()` levels; output ≈ `sign(x)` on
/// `2⁻⁵ ≤ |x| ≤ 1` within `tier.error_bound()` plus scheme noise.
pub fn sign_chain<B: SgnBackend>(bk: &mut B, x: &B::Ct, tier: SgnTier) -> B::Ct {
    assert!(
        bk.level(x) >= tier.min_sign_level(),
        "sign at {:?} needs level ≥ {} (got {})",
        tier,
        tier.min_sign_level(),
        bk.level(x)
    );
    let mut y = x.clone();
    for p in tier.composition() {
        let target = bk.scale(&y);
        y = eval_odd7(bk, &y, p, target);
    }
    y
}

/// Halve `x` while steering the result onto `target` scale:
/// `plain_mult(0.5)` with `pt_scale = target·q_drop / x.scale`, then
/// rescale. One level.
fn halve_to<B: SgnBackend>(bk: &mut B, x: &B::Ct, target: f64) -> B::Ct {
    let l = bk.level(x);
    let pt = target * dropped(bk, l) / bk.scale(x);
    let h = bk.plain_mult(x, 0.5, pt);
    bk.rescale(&h)
}

fn require_derived<B: SgnBackend>(bk: &B, ct: &B::Ct, tier: SgnTier, what: &str) {
    assert!(
        bk.level(ct) >= tier.min_derived_level(),
        "{what} at {:?} needs level ≥ {} (got {})",
        tier,
        tier.min_derived_level(),
        bk.level(ct)
    );
}

/// `compare(a, b) ≈ 1 if a > b, 0 if a < b, ½ at a = b` — via
/// `(sign((a−b)/2) + 1)/2`. Inputs must satisfy `|a − b| ≤ 2` with
/// `|a − b|/2` inside the sign domain for full precision. Consumes
/// `tier.depth() + 2` levels.
pub fn compare_chain<B: SgnBackend>(bk: &mut B, a: &B::Ct, b: &B::Ct, tier: SgnTier) -> B::Ct {
    require_derived(bk, a, tier, "compare");
    let d = bk.sub(a, b);
    let target = bk.scale(&d);
    let h = halve_to(bk, &d, target);
    let s = sign_chain(bk, &h, tier);
    let shifted = bk.plain_add(&s, 1.0);
    let target = bk.scale(&shifted);
    halve_to(bk, &shifted, target)
}

/// Encrypted indicator `x > t` for a plaintext threshold `t`:
/// `(sign((x−t)/2) + 1)/2`. Consumes `tier.depth() + 2` levels.
pub fn threshold_chain<B: SgnBackend>(bk: &mut B, x: &B::Ct, t: f64, tier: SgnTier) -> B::Ct {
    require_derived(bk, x, tier, "threshold");
    let d = bk.plain_add(x, -t);
    let target = bk.scale(&d);
    let h = halve_to(bk, &d, target);
    let s = sign_chain(bk, &h, tier);
    let shifted = bk.plain_add(&s, 1.0);
    let target = bk.scale(&shifted);
    halve_to(bk, &shifted, target)
}

/// `max(a, b) ≈ (a+b)/2 + ((a−b)/2)·sign(a−b)` (`min` flips the final
/// add to a sub). Consumes `tier.depth() + 2` levels.
pub fn max_chain<B: SgnBackend>(bk: &mut B, a: &B::Ct, b: &B::Ct, tier: SgnTier) -> B::Ct {
    min_max_chain(bk, a, b, tier, false)
}

/// `min(a, b)` — see [`max_chain`].
pub(crate) fn min_chain<B: SgnBackend>(bk: &mut B, a: &B::Ct, b: &B::Ct, tier: SgnTier) -> B::Ct {
    min_max_chain(bk, a, b, tier, true)
}

fn min_max_chain<B: SgnBackend>(
    bk: &mut B,
    a: &B::Ct,
    b: &B::Ct,
    tier: SgnTier,
    is_min: bool,
) -> B::Ct {
    require_derived(bk, a, tier, if is_min { "min" } else { "max" });
    let sum = bk.add(a, b);
    let d = bk.sub(a, b);
    let target = bk.scale(&d);
    let half_d = halve_to(bk, &d, target);
    let s = sign_chain(bk, &half_d, tier);
    // |a−b|/2 term: (a−b)/2 · sign(a−b), with (a−b)/2 dropped to the
    // sign output's level.
    let level = bk.level(&s);
    let half_d = bk.mod_drop(&half_d, level);
    let m = bk.mult(&half_d, &s);
    // (a+b)/2 aimed at the product's exact scale so the final add/sub
    // stays within tolerance.
    let target = bk.scale(&m);
    let sum = bk.mod_drop(&sum, level);
    let half_sum = halve_to(bk, &sum, target);
    let half_sum = bk.mod_drop(&half_sum, bk.level(&m));
    if is_min {
        bk.sub(&half_sum, &m)
    } else {
        bk.add(&half_sum, &m)
    }
}

/// `relu(x) ≈ x · (sign(x) + 1)/2`. Consumes `tier.depth() + 2`
/// levels; output scale is the product scale of the final gate
/// multiply.
pub fn relu_chain<B: SgnBackend>(bk: &mut B, x: &B::Ct, tier: SgnTier) -> B::Ct {
    require_derived(bk, x, tier, "relu");
    let s = sign_chain(bk, x, tier);
    let shifted = bk.plain_add(&s, 1.0);
    let target = bk.scale(&shifted);
    let gate = halve_to(bk, &shifted, target);
    let x_at = bk.mod_drop(x, bk.level(&gate));
    bk.mult(&x_at, &gate)
}

/// The eager backend: chains run directly on real ciphertexts through
/// [`Evaluator`].
pub struct EagerSgnBackend<'a> {
    ev: &'a Evaluator<'a>,
    relin: &'a SwitchingKey,
}

impl<'a> EagerSgnBackend<'a> {
    /// Chains need the relinearization key for their multiplies.
    pub fn new(ev: &'a Evaluator<'a>, relin: &'a SwitchingKey) -> Self {
        Self { ev, relin }
    }
}

impl SgnBackend for EagerSgnBackend<'_> {
    type Ct = Ciphertext;

    fn level(&self, ct: &Ciphertext) -> usize {
        ct.level
    }

    fn scale(&self, ct: &Ciphertext) -> f64 {
        ct.scale
    }

    fn modulus(&self, idx: usize) -> u64 {
        self.ev.context().q_moduli()[idx]
    }

    fn add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.ev.add(a, b)
    }

    fn sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.ev.sub(a, b)
    }

    fn mult(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.ev.mult(a, b, self.relin)
    }

    fn plain_mult(&mut self, a: &Ciphertext, value: f64, pt_scale: f64) -> Ciphertext {
        let ctx = self.ev.context();
        let pt = ctx.encode_at(&vec![value; ctx.slot_count()], a.level, pt_scale);
        self.ev.mult_plain(a, &pt, pt_scale)
    }

    fn plain_add(&mut self, a: &Ciphertext, value: f64) -> Ciphertext {
        let ctx = self.ev.context();
        let pt = ctx.encode_at(&vec![value; ctx.slot_count()], a.level, a.scale);
        self.ev.add_plain(a, &pt, a.scale)
    }

    fn rescale(&mut self, a: &Ciphertext) -> Ciphertext {
        self.ev.rescale(a)
    }

    fn mod_drop(&mut self, a: &Ciphertext, level: usize) -> Ciphertext {
        self.ev.mod_drop(a, level)
    }
}

/// The public comparison toolkit: a [`SignEvaluator`] wraps an
/// [`Evaluator`] plus the relinearization key at a chosen precision
/// tier and exposes sign and its derived combinators on ciphertexts.
///
/// ```no_run
/// use cross_ckks::ext::sgn::{SgnTier, SignEvaluator};
/// use cross_ckks::{CkksContext, CkksParams, Evaluator};
/// let ctx = CkksContext::new(CkksParams::new(1 << 9, 16, 2, 28), 1);
/// let kp = ctx.generate_keys();
/// let ev = Evaluator::new(&ctx);
/// let sgn = SignEvaluator::new(&ev, &kp.relin, SgnTier::Low);
/// let x = ctx.encrypt(&vec![0.25; ctx.slot_count()], &kp.public);
/// let s = sgn.sign(&x); // ≈ +1 in every slot
/// # let _ = s;
/// ```
pub struct SignEvaluator<'a> {
    ev: &'a Evaluator<'a>,
    relin: &'a SwitchingKey,
    tier: SgnTier,
}

impl<'a> SignEvaluator<'a> {
    /// A sign evaluator at `tier`.
    pub fn new(ev: &'a Evaluator<'a>, relin: &'a SwitchingKey, tier: SgnTier) -> Self {
        Self { ev, relin, tier }
    }

    fn backend(&self) -> EagerSgnBackend<'a> {
        EagerSgnBackend::new(self.ev, self.relin)
    }

    /// `sign(x)` on `2⁻⁵ ≤ |x| ≤ 1`, within `tier.error_bound()` plus
    /// scheme noise. Consumes `tier.depth()` levels.
    pub fn sign(&self, x: &Ciphertext) -> Ciphertext {
        sign_chain(&mut self.backend(), x, self.tier)
    }

    /// Slot-wise `a > b` indicator in `[0, 1]`.
    pub fn compare(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        compare_chain(&mut self.backend(), a, b, self.tier)
    }

    /// Slot-wise maximum.
    pub fn max(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        max_chain(&mut self.backend(), a, b, self.tier)
    }

    /// Slot-wise minimum.
    pub fn min(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        min_chain(&mut self.backend(), a, b, self.tier)
    }

    /// Slot-wise `relu(x) = max(x, 0)`.
    pub fn relu(&self, x: &Ciphertext) -> Ciphertext {
        relu_chain(&mut self.backend(), x, self.tier)
    }

    /// Slot-wise `x > t` indicator for a plaintext threshold.
    pub fn threshold(&self, x: &Ciphertext, t: f64) -> Ciphertext {
        threshold_chain(&mut self.backend(), x, t, self.tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::params::CkksParams;

    #[test]
    fn plain_reference_meets_tier_bounds() {
        for tier in SgnTier::ALL {
            let bound = tier.error_bound();
            let mut x = 0.03125_f64; // 2⁻⁵
            while x <= 1.0 {
                for v in [x, -x] {
                    let err = (sign_ref(tier, v) - v.signum()).abs();
                    assert!(
                        err <= bound,
                        "{tier:?}: |sgn({v}) − sign| = {err:e} > {bound:e}"
                    );
                }
                x *= 1.037;
            }
        }
    }

    #[test]
    fn g3_keeps_f3_in_domain() {
        // g3 maps [−1, 1] into itself (±0.9998 extrema) and f3 is
        // contracting on [−1.03, 1.03]; sample densely.
        for i in 0..=4000 {
            let x = -1.0 + 2.0 * i as f64 / 4000.0;
            let g = G3.eval(x);
            assert!(g.abs() <= 1.0, "g3({x}) = {g}");
            let f = F3.eval(g);
            assert!(f.abs() <= 1.0 + 1e-12, "f3(g3({x})) = {f}");
        }
    }

    #[test]
    fn depth_and_level_floors() {
        assert_eq!(SgnTier::Low.depth(), 12);
        assert_eq!(SgnTier::Mid.depth(), 16);
        assert_eq!(SgnTier::High.depth(), 20);
        for t in SgnTier::ALL {
            assert_eq!(t.min_sign_level(), t.depth() + 2);
            assert_eq!(t.min_derived_level(), t.depth() + 4);
        }
    }

    #[test]
    fn eager_low_tier_sign_smoke() {
        let tier = SgnTier::Low;
        let ctx = CkksContext::new(CkksParams::new(1 << 9, tier.min_sign_level(), 2, 28), 99);
        let kp = ctx.generate_keys();
        let ev = Evaluator::new(&ctx);
        let sgn = SignEvaluator::new(&ev, &kp.relin, tier);
        let msg: Vec<f64> = (0..ctx.slot_count())
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.25 })
            .collect();
        let ct = ctx.encrypt(&msg, &kp.public);
        let out = sgn.sign(&ct);
        assert_eq!(out.level, ct.level - tier.depth());
        assert!((out.scale / ct.scale - 1.0).abs() < 1e-2, "scale drifted");
        let got = ctx.decrypt(&out, &kp.secret);
        for (i, (g, m)) in got.iter().zip(&msg).enumerate() {
            let want = m.signum();
            assert!((g - want).abs() < 0.2, "slot {i}: {g} vs {want}");
        }
    }

    #[test]
    #[should_panic(expected = "needs level")]
    fn sign_rejects_shallow_inputs() {
        let ctx = CkksContext::new(CkksParams::new(1 << 9, 6, 2, 28), 7);
        let kp = ctx.generate_keys();
        let ev = Evaluator::new(&ctx);
        let sgn = SignEvaluator::new(&ev, &kp.relin, SgnTier::Low);
        let ct = ctx.encrypt(&vec![0.5; ctx.slot_count()], &kp.public);
        let _ = sgn.sign(&ct);
    }
}
