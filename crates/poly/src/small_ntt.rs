//! Shoup/lazy-reduced negacyclic transforms — the arithmetic of the
//! host NTT engine ([`crate::host_ntt`]) — and the Shoup
//! multiply-accumulate helpers key switching and BConv share.
//!
//! The radix-2 loops in [`crate::ntt`] pay a `u128` division per
//! butterfly (`mul_mod`). Every twiddle is known ahead of time, so
//! every multiply here is a Shoup multiply (one `u64×u64→hi` product,
//! one wrapping multiply, no division) and reductions are **lazy** in
//! the Harvey style: forward Cooley–Tukey butterflies keep values in
//! `[0, 4q)`, Gentleman–Sande keeps `[0, 2q)`, and one conditional
//! subtract pair restores canonical `[0, q)` at the end. The dataflow
//! is the reference's own — same stages, same butterfly order — with
//! one change of schedule: the six stages that never leave a
//! 64-element block (the last six forward, the first six inverse) run
//! block by block through a monomorphized 64-point body (the compiler
//! fully unrolls the fixed trip counts) instead of as six more passes
//! over the whole polynomial. Sizes below 64 are one block.
//!
//! Twiddle **layouts are bit-for-bit those of [`crate::ntt`]** — the
//! forward reads `fwd[m + i]` exactly like `psi_rev`, the inverse
//! reads `inv[h + i]` like `psi_inv_rev` — and every value is the same
//! residue class as the reference's at every stage, so the canonical
//! outputs are bit-identical to the butterfly reference.

use crate::tables::NttTables;

/// Parallel `(w, w·2⁶⁴/q)` arrays for Shoup multiplication by
/// precomputed constants.
#[derive(Debug, Clone, Default)]
pub struct ShoupPairs {
    w: Vec<u64>,
    w_shoup: Vec<u64>,
}

impl ShoupPairs {
    /// Empty table with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            w: Vec::with_capacity(cap),
            w_shoup: Vec::with_capacity(cap),
        }
    }

    /// Appends constant `w < q` with its Shoup companion `⌊w·2⁶⁴/q⌋`.
    pub fn push(&mut self, w: u64, q: u64) {
        debug_assert!(w < q, "Shoup constant must be reduced");
        self.w.push(w);
        self.w_shoup.push((((w as u128) << 64) / q as u128) as u64);
    }

    /// Builds a table from a slice of reduced constants (all `< q`).
    pub(crate) fn from_values(ws: &[u64], q: u64) -> Self {
        let mut pairs = Self::with_capacity(ws.len());
        for &w in ws {
            pairs.push(w, q);
        }
        pairs
    }

    /// The `(w, w_shoup)` pair at index `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> (u64, u64) {
        (self.w[i], self.w_shoup[i])
    }
}

/// Lazy Shoup product `a·w mod q + εq ∈ [0, 2q)` with `ε ∈ {0, 1}`,
/// valid for **any** `a < 2⁶⁴` when `2q < 2⁶⁴`: with
/// `ws = ⌊w·2⁶⁴/q⌋` the high product `⌊a·ws/2⁶⁴⌋` is within 1 of
/// `⌊a·w/q⌋`, so the wrapping difference lands in `[0, 2q)`.
#[inline(always)]
pub(crate) fn shoup_lazy(a: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let hi = ((a as u128 * w_shoup as u128) >> 64) as u64;
    a.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q))
}

/// `acc[j] ← acc[j] + xs[j]·w mod q + εq`, folded to `< 2q` — lazy
/// multiply-accumulate against one precomputed `(w, ⌊w·2⁶⁴/q⌋)` pair
/// (a BConv matrix column entry). Accepts **any** `u64` inputs and
/// keeps the accumulator `< 2q` invariantly, so a whole sum runs with
/// a single conditional subtract per term; close the chain with
/// [`reduce_strict_slice`].
#[inline]
pub fn mul_acc_lazy_const(xs: &[u64], w: u64, w_shoup: u64, acc: &mut [u64], q: u64) {
    debug_assert!(q < 1 << 62, "need 4q < 2^64 for the lazy fold");
    let two_q = 2 * q;
    for (a, &x) in acc.iter_mut().zip(xs) {
        let s = *a + shoup_lazy(x, w, w_shoup, q);
        *a = if s >= two_q { s - two_q } else { s };
    }
}

/// Strict Shoup product `a·w mod q ∈ [0, q)` for any `a < 2⁶⁴` —
/// the canonical single-constant multiply for precomputed pairs
/// (e.g. the `P⁻¹`/`q_last⁻¹` scalings of mod-down and rescale).
#[inline(always)]
pub fn shoup_mul(a: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let y = shoup_lazy(a, w, w_shoup, q);
    if y >= q {
        y - q
    } else {
        y
    }
}

/// Conditional subtract `[0, 2·two_q) → [0, two_q)` (used with
/// `two_q = 2q` to fold `4q`-lazy values to `2q`).
#[inline(always)]
fn reduce_2q(x: u64, two_q: u64) -> u64 {
    if x >= two_q {
        x - two_q
    } else {
        x
    }
}

/// Final conditional subtract `[0, 2q) → [0, q)` over a slice — the
/// strict pass that closes a chain of lazy accumulations
/// ([`mul_acc_lazy_const`]).
#[inline]
pub fn reduce_strict_slice(xs: &mut [u64], q: u64) {
    for x in xs.iter_mut() {
        if *x >= q {
            *x -= q;
        }
    }
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
            n_inv: ShoupPairs::from_values(&[tables.n_inv()], q).get(0),
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
/// `b·m + i`, i.e. twiddle `m·base + i`. Values enter `< 4q` (any
/// `u64` in the upper half) and leave **lazy** in `[0, 4q)`.
#[inline(always)]
fn neg_forward_stages(a: &mut [u64], tb: &SmallNttTables, base: usize, stop: usize) {
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
                let u = reduce_2q(a[j], two_q);
                let v = shoup_lazy(a[j + t], w, ws, q);
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
fn neg_forward_block(a: &mut [u64], tb: &SmallNttTables, base: usize) {
    neg_forward_stages(a, tb, base, a.len());
    let (q, two_q) = (tb.q, 2 * tb.q);
    for x in a.iter_mut() {
        let y = reduce_2q(*x, two_q);
        *x = if y >= q { y - q } else { y };
    }
}

/// [`neg_forward_block`] at the one size worth monomorphizing: the
/// fixed trip counts let the compiler unroll all six stages.
#[inline(never)]
fn neg_forward_block64(a: &mut [u64; BLOCK], tb: &SmallNttTables, base: usize) {
    neg_forward_block(a, tb, base);
}

/// In-place forward negacyclic NTT, natural → bit-reversed, canonical
/// `[0, q)` output — bit-identical to [`crate::ntt::forward_inplace`].
/// From 64 points up, the leading stages run as full-width lazy
/// passes and the last six block by block.
///
/// # Panics
/// Panics if `a.len() != tb.n()`.
pub(crate) fn negacyclic_forward(a: &mut [u64], tb: &SmallNttTables) {
    assert_eq!(a.len(), tb.n, "input length must equal the ring degree");
    let blocks = a.len() / BLOCK;
    if blocks == 0 {
        return neg_forward_block(a, tb, 1);
    }
    neg_forward_stages(a, tb, 1, blocks);
    for (b, block) in a.chunks_exact_mut(BLOCK).enumerate() {
        let block = block.try_into().expect("chunks are BLOCK long");
        neg_forward_block64(block, tb, blocks + b);
    }
}

/// Inverse GS stages of one aligned block from butterfly span `t` up
/// to the block's length (see [`neg_forward_stages`] for `base`; the
/// inverse reads twiddle `h·base + i` at local half-count `h`).
/// Mirrors [`crate::ntt::inverse_inplace`] without its final `n⁻¹`
/// pass; values enter and leave `< 2q`.
#[inline(always)]
fn neg_inverse_stages(a: &mut [u64], tb: &SmallNttTables, base: usize, mut t: usize) {
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
                *x = reduce_2q(u + v, two_q);
                *y = shoup_lazy(u + two_q - v, w, ws, q);
            }
        }
        t *= 2;
    }
}

/// All six stages of one 64-point block, monomorphized and unrolled.
#[inline(never)]
fn neg_inverse_block64(a: &mut [u64; BLOCK], tb: &SmallNttTables, base: usize) {
    neg_inverse_stages(a, tb, base, 1);
}

/// In-place inverse negacyclic NTT (bit-reversed → natural, includes
/// the `n⁻¹` factor) — bit-identical to
/// [`crate::ntt::inverse_inplace`]. Input may be lazy up to `[0, 2q)`;
/// output is canonical. From 64 points up, the first six stages run
/// block by block, then the trailing stages as full-width passes.
///
/// # Panics
/// Panics if `a.len() != tb.n()`.
pub(crate) fn negacyclic_inverse(a: &mut [u64], tb: &SmallNttTables) {
    assert_eq!(a.len(), tb.n, "input length must equal the ring degree");
    let blocks = a.len() / BLOCK;
    if blocks == 0 {
        neg_inverse_stages(a, tb, 1, 1);
    } else {
        for (b, block) in a.chunks_exact_mut(BLOCK).enumerate() {
            let block = block.try_into().expect("chunks are BLOCK long");
            neg_inverse_block64(block, tb, blocks + b);
        }
        neg_inverse_stages(a, tb, 1, BLOCK);
    }
    let (ni, nis) = tb.n_inv;
    for x in a.iter_mut() {
        *x = shoup_mul(*x, ni, nis, tb.q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt;
    use cross_math::modops::mul_mod;
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

    #[test]
    fn shoup_lazy_in_range_and_congruent() {
        let q = primes::ntt_prime(30, 1 << 10, 0).unwrap();
        for (a, w) in [(0u64, 1u64), (4 * q - 1, q - 1), (u64::MAX, 12345)] {
            let ws = (((w as u128) << 64) / q as u128) as u64;
            let got = shoup_lazy(a, w, ws, q);
            assert!(got < 2 * q, "a={a} w={w}: {got} not lazy");
            assert_eq!(got % q, ((a as u128 * w as u128) % q as u128) as u64);
        }
    }

    #[test]
    fn negacyclic_matches_butterfly_reference() {
        // Same twiddle layout as ntt::forward_inplace ⇒ identical
        // canonical outputs, for every single-body size (≤ 64) and the
        // first blocked sizes (128, 256: one and two leading passes).
        for bits in [20u32, 28, 30] {
            for logn in 0..=8u32 {
                let n = 1usize << logn;
                let Some(q) = primes::ntt_prime(bits, n as u64, 0) else {
                    continue;
                };
                let t = NttTables::new(n, q);
                let tb = SmallNttTables::new(&t);
                let a = residues(n, q, 7 + logn as u64);
                let mut want = a.clone();
                ntt::forward_inplace(&mut want, &t);
                let mut got = a.clone();
                negacyclic_forward(&mut got, &tb);
                assert_eq!(got, want, "forward bits={bits} n={n}");
                let mut back = want.clone();
                let mut back_ref = want.clone();
                negacyclic_inverse(&mut back, &tb);
                ntt::inverse_inplace(&mut back_ref, &t);
                assert_eq!(back, back_ref, "inverse bits={bits} n={n}");
                assert_eq!(back, a, "roundtrip bits={bits} n={n}");
            }
        }
    }

    #[test]
    fn forward_stages_stay_lazy() {
        let n = 64usize;
        let q = primes::ntt_prime(30, (2 * n) as u64, 0).unwrap();
        let tb = SmallNttTables::new(&NttTables::new(n, q));
        let mut a = residues(n, q, 3);
        neg_forward_stages(&mut a, &tb, 1, n);
        assert!(a.iter().all(|&x| x < 4 * q), "lazy bound violated");
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

    #[test]
    fn mul_acc_lazy_const_matches_strict_inner_product() {
        let q = primes::ntt_prime(28, 1 << 6, 0).unwrap();
        let terms = 7usize;
        let len = 16usize;
        // per-term constants and unreduced inputs (any u64 < 2q)
        let consts = ShoupPairs::from_values(&residues(terms, q, 11), q);
        let inputs: Vec<Vec<u64>> = (0..terms)
            .map(|t| {
                residues(len, q, 31 + t as u64)
                    .into_iter()
                    .map(|x| x + q * (t as u64 % 2)) // exercise lazy inputs
                    .collect()
            })
            .collect();
        let mut acc = vec![0u64; len];
        for (t, xs) in inputs.iter().enumerate() {
            let (w, ws) = consts.get(t);
            mul_acc_lazy_const(xs, w, ws, &mut acc, q);
            assert!(acc.iter().all(|&a| a < 2 * q), "accumulator left 2q");
        }
        reduce_strict_slice(&mut acc, q);
        for j in 0..len {
            let mut want = 0u64;
            for (t, xs) in inputs.iter().enumerate() {
                want = (want + mul_mod(xs[j] % q, consts.get(t).0, q)) % q;
            }
            assert_eq!(acc[j], want, "element {j}");
        }
    }
}
