//! Shoup/lazy-reduced negacyclic transforms — the arithmetic of the
//! host NTT engine ([`crate::host_ntt`]) — and the subtract-and-scale
//! that closes a mod-down or a rescale. The word-level Shoup kernels
//! themselves live in [`cross_math::shoup`].
//!
//! The radix-2 loops in [`crate::ntt`] pay a `u128` division per
//! butterfly (`mul_mod`). Every twiddle is known ahead of time, so
//! every multiply here is a Shoup multiply (no division) and reductions
//! are **lazy** in the Harvey style: forward Cooley–Tukey butterflies
//! keep values in `[0, 4q)`, Gentleman–Sande keeps `[0, 2q)`, and one
//! conditional subtract pair restores canonical `[0, q)` at the end.
//! The dataflow is the reference's own — same stages, same butterfly
//! order — with one change of schedule: the six stages that never
//! leave a 64-element block (the last six forward, the first six
//! inverse) run block by block through a 64-point body the compiler
//! fully unrolls, instead of as six more passes over the whole
//! polynomial. Sizes below 64 are one block.
//!
//! **Two arithmetics, one body.** Each kernel body is written once,
//! generic over `const LANES: bool`:
//! * 64-bit words: a Shoup multiply is one `u64×u64→hi` product and
//!   one wrapping multiply — a 128-bit product no x86 SIMD unit has,
//!   so the loops run one residue at a time;
//! * 32-bit lanes, for `q < 2³⁰` (every parameter set's primes are 28
//!   bits): the same multiply with `β = 2³²` — `hi = (a·ws₃₂) >> 32`,
//!   `a·w − hi·q ∈ [0, 2q)` — where every operand is below 2³², so
//!   each product is one `vpmuludq`, four lanes at a time. The Harvey
//!   bounds hold because `4q < 2³²`, and `ws₃₂ = ws >> 32` reads the
//!   64-bit companions, so the lanes need no table of their own.
//!
//! The lane instantiation is compiled under
//! `#[target_feature(enable = "avx2")]` and runs where `lanes` holds
//! (`q < 2³⁰` and AVX2 detected at run time); the words run everywhere
//! else — hosts without AVX2, non-x86_64 builds, and `q ≥ 2³⁰`.
//!
//! Twiddle **layouts are bit-for-bit those of [`crate::ntt`]** — the
//! forward reads `fwd[m + i]` exactly like `psi_rev`, the inverse
//! reads `inv[h + i]` like `psi_inv_rev` — and every value is the same
//! residue class as the reference's at every stage, so the canonical
//! outputs are bit-identical to the butterfly reference in either
//! arithmetic.

use crate::tables::NttTables;
use cross_math::shoup::{self, ShoupPairs};

/// The low 32 bits of a word. Masking both operands of a product tells
/// the compiler it is a 32×32→64 multiply — one `vpmuludq` for four
/// lanes under AVX2, where a 64×64→128 multiply has no SIMD form.
const LO32: u64 = u32::MAX as u64;

/// Whether a kernel over modulus `q` runs in 32-bit lanes: the lane
/// form's bounds need `4q < 2³²`, and its four-wide products need AVX2.
/// The one dispatch rule; everything else (hosts without AVX2,
/// non-x86_64 builds, `q ≥ 2³⁰`) runs in 64-bit words.
// Off x86_64 only the tests call it: every dispatch site is x86-only.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) fn lanes(q: u64) -> bool {
    q < 1 << 30 && avx2()
}

#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2() -> bool {
    false
}

/// The lazy Shoup product `a·w mod q + εq ∈ [0, 2q)` in the arithmetic
/// a kernel body is instantiated with: [`shoup::mul_lazy`]'s 64-bit words,
/// or — `LANES`, for `q < 2³⁰` and `a < 2³²` — the same multiply with
/// `β = 2³²`: `hi = ⌊a·ws₃₂/2³²⌋` is within 1 of `⌊a·w/q⌋`, so
/// `a·w − hi·q ∈ [0, 2q)`, from three 32×32→64 products. The 32-bit
/// companion needs no table of its own: `ws₃₂ = ⌊w·2³²/q⌋ = ws >> 32`,
/// a floor of a floor. The two forms may differ by `q`; every kernel
/// ends canonical, so their outputs are bit-identical.
#[inline(always)]
fn mul_lazy<const LANES: bool>(a: u64, w: u64, ws: u64, q: u64) -> u64 {
    if !LANES {
        return shoup::mul_lazy(a, w, ws, q);
    }
    debug_assert!(a <= LO32 && q < 1 << 30, "lanes need a < 2^32, q < 2^30");
    let a = a & LO32;
    let hi = (a * (ws >> 32)) >> 32;
    a * (w & LO32) - hi * (q & LO32)
}

/// Conditional subtract `[0, 2m) → [0, m)`. The lanes test the sign
/// of `x − m` (their values are far below 2⁶³): one `vpcmpgtq`, where
/// an unsigned 64-bit compare costs AVX2 two more instructions.
#[inline(always)]
fn fold<const LANES: bool>(x: u64, m: u64) -> u64 {
    if LANES {
        let y = x.wrapping_sub(m);
        if (y as i64) < 0 {
            x
        } else {
            y
        }
    } else if x >= m {
        x - m
    } else {
        x
    }
}

/// Strict Shoup product `a·w mod q ∈ [0, q)` in the arithmetic `LANES`
/// selects (see [`mul_lazy`] for its input bounds).
#[inline(always)]
fn mul_const<const LANES: bool>(a: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    fold::<LANES>(mul_lazy::<LANES>(a, w, w_shoup, q), q)
}

/// `ys[j] ← (xs[j] − ys[j])·w mod q` for canonical `xs`, `ys` against
/// one precomputed `(w, ⌊w·2⁶⁴/q⌋)` pair — the subtract-and-scale that
/// closes a mod-down (`w = P⁻¹`, into the converted correction) or a
/// rescale (`w = q_last⁻¹`, into the lifted last limb). Written over
/// the subtrahend, which both callers own; canonical output, in 32-bit
/// lanes where `lanes` allows.
pub fn sub_mul_const(xs: &[u64], ys: &mut [u64], w: u64, w_shoup: u64, q: u64) {
    assert_eq!(xs.len(), ys.len(), "operand length mismatch");
    #[cfg(target_arch = "x86_64")]
    if lanes(q) {
        // SAFETY: `lanes` detected AVX2 on this CPU.
        return unsafe { sub_mul_const_lanes(xs, ys, w, w_shoup, q) };
    }
    sub_mul_const_body::<false>(xs, ys, w, w_shoup, q)
}

#[inline(always)]
fn sub_mul_const_body<const LANES: bool>(xs: &[u64], ys: &mut [u64], w: u64, w_shoup: u64, q: u64) {
    for (y, &x) in ys.iter_mut().zip(xs) {
        debug_assert!(x < q && *y < q, "operands must be reduced");
        *y = mul_const::<LANES>(fold::<LANES>(x + q - *y, q), w, w_shoup, q);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sub_mul_const_lanes(xs: &[u64], ys: &mut [u64], w: u64, w_shoup: u64, q: u64) {
    sub_mul_const_body::<true>(xs, ys, w, w_shoup, q)
}

/// Shoup twiddle tables of the lazy negacyclic transform for one
/// `(N, q)` pair.
#[derive(Debug, Clone)]
pub(crate) struct SmallNttTables {
    n: usize,
    q: u64,
    /// Forward CT twiddles, `fwd[m+i] = ψ^{bitrev(m+i)}` —
    /// [`NttTables::psi_rev`] with Shoup companions.
    fwd: ShoupPairs,
    /// Inverse GS twiddles, `inv[h+i] = ψ^{-bitrev(h+i)}`.
    inv: ShoupPairs,
    /// `(n⁻¹, shoup)` for the inverse's final scaling pass.
    n_inv: (u64, u64),
}

impl SmallNttTables {
    /// Shoup companions for `tables`' bit-reversed twiddles.
    ///
    /// # Panics
    /// Panics if `q ≥ 2³²` (Shoup bound `4q < 2⁶⁴` held with margin;
    /// every CROSS prime is < 2³²).
    pub(crate) fn new(tables: &NttTables) -> Self {
        let q = tables.q();
        assert!(q < 1 << 32, "Shoup transforms require q < 2^32");
        Self {
            n: tables.n(),
            q,
            fwd: ShoupPairs::from_values(tables.psi_rev(), q),
            inv: ShoupPairs::from_values(tables.psi_inv_rev(), q),
            n_inv: (tables.n_inv(), shoup::companion(tables.n_inv(), q)),
        }
    }
}

/// Points per block of the blocked tail: the last six forward stages
/// (first six inverse stages) never leave a 64-element block, so they
/// run block by block through one monomorphized 64-point body while
/// the block is cache-hot.
const BLOCK: usize = 64;

/// Forward CT stages `m = 1, 2, 4, … < stop` of one aligned block of
/// a lazy negacyclic NTT. Mirrors [`crate::ntt::forward_inplace`]
/// exactly (same twiddle indexing, same butterfly order): the block is
/// the whole transform when `base = 1`, and block `b` of the
/// `len`-point tail of an `n`-point transform when `base = n/len + b`
/// — local stage `m`, group `i` is global stage `m·n/len`, group
/// `b·m + i`, i.e. twiddle `m·base + i`. Values enter `< 4q` and leave
/// **lazy** in `[0, 4q)`.
#[inline(always)]
fn neg_forward_stages<const LANES: bool>(
    a: &mut [u64],
    tb: &SmallNttTables,
    base: usize,
    stop: usize,
) {
    let q = tb.q;
    let two_q = 2 * q;
    let mut t = a.len();
    let mut m = 1usize;
    while m < stop {
        t /= 2;
        for i in 0..m {
            let (w, ws) = tb.fwd.get(m * base + i);
            let j1 = 2 * i * t;
            for j in j1..j1 + t {
                // Harvey CT: u folded to [0,2q), v = lazy product
                // < 2q, so u+v and u+2q−v stay < 4q.
                let u = fold::<LANES>(a[j], two_q);
                let v = mul_lazy::<LANES>(a[j + t], w, ws, q);
                a[j] = u + v;
                a[j + t] = u + two_q - v;
            }
        }
        m *= 2;
    }
}

/// All stages of one block, then its fold from `[0, 4q)` to canonical
/// `[0, q)` while it is cache-hot.
#[inline(always)]
fn neg_forward_block<const LANES: bool>(a: &mut [u64], tb: &SmallNttTables, base: usize) {
    neg_forward_stages::<LANES>(a, tb, base, a.len());
    let (q, two_q) = (tb.q, 2 * tb.q);
    for x in a.iter_mut() {
        *x = fold::<LANES>(fold::<LANES>(*x, two_q), q);
    }
}

/// The forward transform in one arithmetic: from 64 points up, the
/// leading stages as full-width lazy passes and the last six block by
/// block through [`neg_forward_block`] at the one size worth
/// monomorphizing (the fixed trip counts let the compiler unroll all
/// six stages).
#[inline(always)]
fn forward<const LANES: bool>(a: &mut [u64], tb: &SmallNttTables) {
    let blocks = a.len() / BLOCK;
    if blocks == 0 {
        return neg_forward_block::<LANES>(a, tb, 1);
    }
    neg_forward_stages::<LANES>(a, tb, 1, blocks);
    for (b, block) in a.chunks_exact_mut(BLOCK).enumerate() {
        let block: &mut [u64; BLOCK] = block.try_into().expect("chunks are BLOCK long");
        if LANES {
            neg_forward_block::<true>(block, tb, blocks + b);
        } else {
            neg_forward_block64_words(block, tb, blocks + b);
        }
    }
}

/// One 64-point forward block in 64-bit words, out of line: a few per
/// cent faster than inlined. The lanes inline theirs instead, since an
/// out-of-line function would be compiled without AVX2.
#[inline(never)]
fn neg_forward_block64_words(a: &mut [u64; BLOCK], tb: &SmallNttTables, base: usize) {
    neg_forward_block::<false>(a, tb, base);
}

/// [`forward`] in 64-bit words, out of line: inlined into the dispatch
/// it reads a few per cent slower.
#[inline(never)]
fn forward_words(a: &mut [u64], tb: &SmallNttTables) {
    forward::<false>(a, tb)
}

/// [`forward`] in 32-bit lanes, compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn forward_lanes(a: &mut [u64], tb: &SmallNttTables) {
    forward::<true>(a, tb)
}

/// In-place forward negacyclic NTT, natural → bit-reversed, canonical
/// `[0, q)` output — bit-identical to [`crate::ntt::forward_inplace`].
/// Runs in 32-bit lanes where [`lanes`] allows, else in 64-bit words.
///
/// # Panics
/// Panics if `a.len() != tb.n()`.
pub(crate) fn negacyclic_forward(a: &mut [u64], tb: &SmallNttTables) {
    assert_eq!(a.len(), tb.n, "input length must equal the ring degree");
    #[cfg(target_arch = "x86_64")]
    if lanes(tb.q) {
        // SAFETY: `lanes` detected AVX2 on this CPU.
        return unsafe { forward_lanes(a, tb) };
    }
    forward_words(a, tb)
}

/// Inverse GS stages of one aligned block from butterfly span `t` up
/// to the block's length (see [`neg_forward_stages`] for `base`; the
/// inverse reads twiddle `h·base + i` at local half-count `h`).
/// Mirrors [`crate::ntt::inverse_inplace`] without its final `n⁻¹`
/// pass; values enter and leave `< 2q`.
#[inline(always)]
fn neg_inverse_stages<const LANES: bool>(
    a: &mut [u64],
    tb: &SmallNttTables,
    base: usize,
    mut t: usize,
) {
    let q = tb.q;
    let two_q = 2 * q;
    while t < a.len() {
        let h = a.len() / (2 * t);
        for (i, group) in a.chunks_exact_mut(2 * t).enumerate() {
            let (w, ws) = tb.inv.get(h * base + i);
            let (lo, hi) = group.split_at_mut(t);
            for (x, y) in lo.iter_mut().zip(hi) {
                // Harvey GS: inputs < 2q ⇒ u+v < 4q folds back to
                // 2q, and u+2q−v < 4q feeds the lazy product.
                let (u, v) = (*x, *y);
                *x = fold::<LANES>(u + v, two_q);
                *y = mul_lazy::<LANES>(u + two_q - v, w, ws, q);
            }
        }
        t *= 2;
    }
}

/// The inverse transform in one arithmetic: from 64 points up, the
/// first six stages block by block (monomorphized and unrolled), then
/// the trailing stages as full-width passes, then the `n⁻¹` scaling.
#[inline(always)]
fn inverse<const LANES: bool>(a: &mut [u64], tb: &SmallNttTables) {
    let blocks = a.len() / BLOCK;
    if blocks == 0 {
        neg_inverse_stages::<LANES>(a, tb, 1, 1);
    } else {
        for (b, block) in a.chunks_exact_mut(BLOCK).enumerate() {
            let block: &mut [u64; BLOCK] = block.try_into().expect("chunks are BLOCK long");
            if LANES {
                neg_inverse_stages::<true>(block, tb, blocks + b, 1);
            } else {
                neg_inverse_block64_words(block, tb, blocks + b);
            }
        }
        neg_inverse_stages::<LANES>(a, tb, 1, BLOCK);
    }
    let (ni, nis) = tb.n_inv;
    for x in a.iter_mut() {
        *x = mul_const::<LANES>(*x, ni, nis, tb.q);
    }
}

/// One 64-point inverse block in 64-bit words, out of line (see
/// [`neg_forward_block64_words`]).
#[inline(never)]
fn neg_inverse_block64_words(a: &mut [u64; BLOCK], tb: &SmallNttTables, base: usize) {
    neg_inverse_stages::<false>(a, tb, base, 1);
}

/// [`inverse`] in 64-bit words.
fn inverse_words(a: &mut [u64], tb: &SmallNttTables) {
    inverse::<false>(a, tb)
}

/// [`inverse`] in 32-bit lanes, compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn inverse_lanes(a: &mut [u64], tb: &SmallNttTables) {
    inverse::<true>(a, tb)
}

/// In-place inverse negacyclic NTT (bit-reversed → natural, includes
/// the `n⁻¹` factor) — bit-identical to
/// [`crate::ntt::inverse_inplace`]. Input may be lazy up to `[0, 2q)`;
/// output is canonical. Runs in 32-bit lanes where [`lanes`] allows,
/// else in 64-bit words.
///
/// # Panics
/// Panics if `a.len() != tb.n()`.
pub(crate) fn negacyclic_inverse(a: &mut [u64], tb: &SmallNttTables) {
    assert_eq!(a.len(), tb.n, "input length must equal the ring degree");
    #[cfg(target_arch = "x86_64")]
    if lanes(tb.q) {
        // SAFETY: `lanes` detected AVX2 on this CPU.
        return unsafe { inverse_lanes(a, tb) };
    }
    inverse_words(a, tb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt;
    use cross_math::primes;

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

    type Kernel = fn(&mut [u64], &SmallNttTables);

    /// Races one kernel pair against the butterfly reference at every
    /// size 2^0 … 2^14 — single-body sizes (≤ 64), the first blocked
    /// ones (128, 256: one and two leading passes) and every degree up
    /// to Set C's — at each prime width: canonical outputs must be
    /// identical, forward and inverse, and round-trip.
    fn race_reference(forward: Kernel, inverse: Kernel, widths: &[u32]) {
        for &bits in widths {
            for logn in 0..=14u32 {
                let n = 1usize << logn;
                let q = primes::ntt_prime(bits, n as u64, 0).unwrap();
                let t = NttTables::new(n, q);
                let tb = SmallNttTables::new(&t);
                let a = residues(n, q, 7 + logn as u64);
                let mut want = a.clone();
                ntt::forward_inplace(&mut want, &t);
                let mut got = a.clone();
                forward(&mut got, &tb);
                assert_eq!(got, want, "forward bits={bits} n={n}");
                let mut back = want.clone();
                let mut back_ref = want.clone();
                inverse(&mut back, &tb);
                ntt::inverse_inplace(&mut back_ref, &t);
                assert_eq!(back, back_ref, "inverse bits={bits} n={n}");
                assert_eq!(back, a, "roundtrip bits={bits} n={n}");
            }
        }
    }

    #[test]
    fn words_match_butterfly_reference() {
        race_reference(forward_words, inverse_words, &[20, 28, 30, 31]);
    }

    #[test]
    fn lanes_match_butterfly_reference() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `is_x86_feature_detected!("avx2")` held just above.
            let forward: Kernel = |a, tb| unsafe { forward_lanes(a, tb) };
            // SAFETY: `is_x86_feature_detected!("avx2")` held just above.
            let inverse: Kernel = |a, tb| unsafe { inverse_lanes(a, tb) };
            return race_reference(forward, inverse, &[20, 28, 30]);
        }
        println!("lanes_match_butterfly_reference skipped: no AVX2 on this host");
    }

    #[test]
    fn lanes_run_exactly_below_2_30_with_avx2() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        for bits in [20u32, 28, 30, 31] {
            let q = primes::ntt_prime(bits, 1 << 14, 0).unwrap();
            assert_eq!(lanes(q), bits <= 30 && avx2, "{bits}-bit q={q}");
        }
        assert_eq!(lanes((1 << 30) - 1), avx2);
        assert!(!lanes(1 << 30));
    }

    #[test]
    fn forward_stages_stay_lazy() {
        let n = 64usize;
        let q = primes::ntt_prime(30, (2 * n) as u64, 0).unwrap();
        let tb = SmallNttTables::new(&NttTables::new(n, q));
        let a = residues(n, q, 3);
        let mut words = a.clone();
        neg_forward_stages::<false>(&mut words, &tb, 1, n);
        let mut lanes = a;
        neg_forward_stages::<true>(&mut lanes, &tb, 1, n);
        for x in [words, lanes] {
            assert!(x.iter().all(|&x| x < 4 * q), "lazy bound violated");
        }
    }

    #[test]
    fn inverse_accepts_lazy_input() {
        // Values in [q, 2q) are the same residues: the output is the
        // canonical inverse either way.
        let n = 256usize;
        let q = primes::ntt_prime(28, n as u64, 0).unwrap();
        let tb = SmallNttTables::new(&NttTables::new(n, q));
        let a = residues(n, q, 17);
        let mut strict = a.clone();
        negacyclic_inverse(&mut strict, &tb);
        let mut lazy: Vec<u64> = a
            .iter()
            .enumerate()
            .map(|(i, &x)| x + q * (i as u64 % 2))
            .collect();
        negacyclic_inverse(&mut lazy, &tb);
        assert_eq!(lazy, strict);
    }
}
