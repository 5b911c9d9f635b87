//! Precomputed per-level key-switching plans.
//!
//! Hybrid key switching at level `l` always runs the same dataflow:
//! decompose into fixed digits, base-extend each digit to `Q_l·P`,
//! inner-product with the key digits, divide by `P`. Everything about
//! that dataflow except the ciphertext data is a function of the
//! parameter set and the level — the BConv kernels (whose
//! [`BconvKernel::compile`] cost `bat_offline_compile/*` measures in
//! the *milliseconds*), the target-slot layouts, and the `P⁻¹` /
//! `q_last⁻¹` scaling constants. A [`KsPlan`] precomputes all of it
//! once per level and is cached on
//! [`CkksContext`] behind the same
//! `OnceLock` pattern the host NTT tables use, so no per-op
//! path ever compiles a kernel or inverts a modulus again (DESIGN.md
//! §12).

use crate::context::CkksContext;
use cross_core::bconv::BconvKernel;
use cross_core::modred::ModRed;
use cross_math::modops;
use cross_math::rns::RnsBasis;
use cross_math::shoup::ShoupPairs;
use std::ops::Range;

/// The per-digit slice of a [`KsPlan`]: which level limbs form the
/// digit, where its base-extended limbs land in the `Q_l·P` chain, and
/// the compiled BConv kernel that produces them.
#[derive(Debug)]
pub(crate) struct KsDigitPlan {
    /// Level-limb indices belonging to this digit.
    pub(crate) range: Range<usize>,
    /// Extended-chain slot of each converted limb, in kernel output
    /// order (level limbs outside the digit first, then the `P` limbs).
    pub(crate) other_idx: Vec<usize>,
    /// Compiled digit-basis → other-basis conversion kernel.
    pub(crate) kernel: BconvKernel,
    /// For every extended-chain slot `t`: `Some(i)` if it is served by
    /// converted limb `i`, `None` if it is one of the digit's own limbs
    /// (those are sliced straight from the evaluation-domain input).
    pub(crate) conv_pos: Vec<Option<usize>>,
}

/// Everything key switching, mod-down and rescale at one level need
/// beyond the ciphertext itself. Built once per level on first use and
/// cached on the context.
#[derive(Debug)]
pub struct KsPlan {
    /// Per-digit decomposition/extension plans.
    pub(crate) digits: Vec<KsDigitPlan>,
    /// `P → q_0..q_{l-1}` conversion kernel for the final mod-down.
    pub(crate) mod_down: BconvKernel,
    /// `(P⁻¹ mod q_i, shoup)` per level limb.
    pub(crate) p_inv: ShoupPairs,
    /// `(q_{l-1}⁻¹ mod q_i, shoup)` for `i < l-1` (empty at level 1).
    pub(crate) rescale_inv: ShoupPairs,
}

impl KsPlan {
    /// Compiles the plan for level `l` over `ctx`'s chains.
    pub(crate) fn build(ctx: &CkksContext, l: usize) -> Self {
        let n = ctx.params().n;
        let qs: &[u64] = &ctx.q_moduli()[..l];
        let ps: &[u64] = ctx.p_moduli();
        let digits = (0..ctx.digit_count(l))
            .map(|j| {
                let range = ctx.digit_range(j, l);
                let digit_moduli: Vec<u64> = qs[range.clone()].to_vec();
                // target moduli: level moduli outside the digit, then P
                // (the `P` chain is never empty, so neither is `other`).
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
                let table = RnsBasis::new(digit_moduli).bconv_table(&other);
                let kernel = BconvKernel::compile(&table, n, ModRed::Montgomery);
                let mut conv_pos = vec![None; l + ps.len()];
                for (ci, &slot) in other_idx.iter().enumerate() {
                    conv_pos[slot] = Some(ci);
                }
                KsDigitPlan {
                    range,
                    other_idx,
                    kernel,
                    conv_pos,
                }
            })
            .collect();
        let mod_down = BconvKernel::compile(
            &RnsBasis::new(ps.to_vec()).bconv_table(qs),
            n,
            ModRed::Montgomery,
        );
        let mut p_inv = ShoupPairs::with_capacity(l);
        for &qi in qs {
            let inv = modops::inv_mod(ctx.big_p().mod_u64(qi), qi).expect("coprime chain");
            p_inv.push(inv, qi);
        }
        let mut rescale_inv = ShoupPairs::with_capacity(l.saturating_sub(1));
        if l >= 2 {
            let q_last = qs[l - 1];
            for &qi in &qs[..l - 1] {
                let inv = modops::inv_mod(q_last % qi, qi).expect("coprime chain");
                rescale_inv.push(inv, qi);
            }
        }
        Self {
            digits,
            mod_down,
            p_inv,
            rescale_inv,
        }
    }

    /// Number of digit plans (the effective `dnum` at this level).
    pub fn digit_count(&self) -> usize {
        self.digits.len()
    }

    /// Bytes of compiled BConv parameter material held by the plan
    /// (memory accounting, paper §V-C).
    pub fn param_bytes(&self) -> usize {
        self.digits
            .iter()
            .map(|d| d.kernel.param_bytes())
            .sum::<usize>()
            + self.mod_down.param_bytes()
    }
}
