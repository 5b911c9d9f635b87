//! Shoup modular multiplication by precomputed constants.
//!
//! Shoup's trick (NTL \[61\]) multiplies a runtime value `a` by a
//! *known* constant `w` (a twiddle factor, a BConv matrix entry, `P⁻¹`):
//! with the companion `w' = ⌊w·2⁶⁴/q⌋` precomputed, `a·w mod q` needs
//! one high product, one low product and a conditional subtraction —
//! no division. These are the host's kernels: the NTT's word form
//! (`cross_poly::small_ntt`), key switching and BConv multiply through
//! them. The paper's Fig. 13 ablation shows Shoup losing to Montgomery
//! on the TPU because it needs the 64-bit products the VPU lacks; the
//! simulator charges that as a cost (`cross_core::ModRed`), it does not
//! compute with it.

/// The Shoup companion `⌊w·2⁶⁴/q⌋` of a constant `w < q`.
///
/// # Panics
/// Panics if `w >= q`: the companion of an unreduced constant
/// overflows `u64`.
///
/// # Example
/// ```
/// use cross_math::shoup;
/// let q = 268_369_921u64;
/// let w = 123_456_789 % q;
/// let ws = shoup::companion(w, q);
/// assert_eq!(shoup::mul(42, w, ws, q), (42u128 * w as u128 % q as u128) as u64);
/// ```
pub fn companion(w: u64, q: u64) -> u64 {
    assert!(w < q, "the prepared constant must be reduced");
    (((w as u128) << 64) / q as u128) as u64
}

/// Parallel `(w, ⌊w·2⁶⁴/q⌋)` arrays for Shoup multiplication by
/// precomputed constants.
#[derive(Debug, Clone)]
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

    /// Appends constant `w` with its [`companion`].
    ///
    /// # Panics
    /// Panics if `w >= q`.
    pub fn push(&mut self, w: u64, q: u64) {
        self.w_shoup.push(companion(w, q));
        self.w.push(w);
    }

    /// Builds a table from a slice of reduced constants (all `< q`).
    pub fn from_values(ws: &[u64], q: u64) -> Self {
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
pub fn mul_lazy(a: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let hi = ((a as u128 * w_shoup as u128) >> 64) as u64;
    a.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q))
}

/// Strict Shoup product `a·w mod q ∈ [0, q)` for any `a < 2⁶⁴` —
/// the canonical single-constant multiply for precomputed pairs.
#[inline(always)]
pub fn mul(a: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let r = mul_lazy(a, w, w_shoup, q);
    if r >= q {
        r - q
    } else {
        r
    }
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
        let s = *a + mul_lazy(x, w, w_shoup, q);
        *a = if s >= two_q { s - two_q } else { s };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modops::mul_mod;
    use crate::primes;

    const Q: u64 = 268_369_921;

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
    fn matches_reference() {
        for w in [0u64, 1, 2, 12345, Q / 2, Q - 1] {
            let ws = companion(w, Q);
            for a in [0u64, 1, 7, 1 << 20, Q - 1, (1 << 32) - 1, u64::MAX] {
                assert_eq!(mul(a, w, ws, Q), mul_mod(a, w, Q), "w={w} a={a}");
            }
        }
    }

    #[test]
    fn lazy_in_range_and_congruent() {
        let q = primes::ntt_prime(30, 1 << 10, 0).unwrap();
        for (a, w) in [(0u64, 1u64), (4 * q - 1, q - 1), (u64::MAX, 12345)] {
            let got = mul_lazy(a, w, companion(w, q), q);
            assert!(got < 2 * q, "a={a} w={w}: {got} not lazy");
            assert_eq!(got % q, mul_mod(a, w, q));
        }
    }

    #[test]
    #[should_panic(expected = "must be reduced")]
    fn rejects_unreduced_constant() {
        ShoupPairs::with_capacity(1).push(Q, Q);
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
