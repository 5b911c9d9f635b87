//! Residue Number System (RNS) bases and CRT tooling (paper §II-A3).
//!
//! An [`RnsBasis`] packages a chain of pairwise-coprime word moduli
//! `{q_0, …, q_{L-1}}` together with everything the HE stack precomputes
//! offline: `Q = Π q_i`, Garner
//! mixed-radix tables for reconstruction, and the Basis-Conversion tables
//! `[q̂_i^{-1}]_{q_i}` / `[q̂_i]_{p_j}` of paper §F2.

use crate::bigint::BigUint;
use crate::modops;
use std::cmp::Ordering;

/// Most moduli [`RnsBasis::centered_f64`] reconstructs over: its
/// Garner digits and Horner words live in fixed stack arrays (`Q` of
/// up to 128 sub-2³² moduli fits 64 words).
const MAX_LIMBS: usize = 128;

/// A chain of pairwise-coprime word moduli with precomputed contexts.
///
/// # Example
/// ```
/// use cross_math::{primes, RnsBasis};
/// let moduli = primes::ntt_prime_chain(28, 1 << 10, 3).unwrap();
/// let basis = RnsBasis::new(moduli.clone());
/// let x = 123_456_789_012u128;
/// let residues: Vec<u64> = moduli.iter().map(|&q| (x % q as u128) as u64).collect();
/// assert_eq!(basis.reconstruct(&residues), cross_math::BigUint::from(x));
/// ```
#[derive(Debug, Clone)]
pub struct RnsBasis {
    moduli: Vec<u64>,
    /// `Q = Π q_i`
    big_q: BigUint,
    /// `Q / 2` (for signed centering)
    half_q: BigUint,
    /// Garner: `inv_partial[i] = (Π_{j<i} q_j)^{-1} mod q_i`
    garner_inv: Vec<u64>,
    /// Garner's mixed-radix constants, row `i` at offset `i(i−1)/2`:
    /// `(Π_{k<j} q_k) mod q_i` for `j < i`.
    garner_radix: Vec<u64>,
}

impl RnsBasis {
    /// Builds the basis and all precomputed tables.
    ///
    /// # Panics
    /// Panics if the moduli are not pairwise coprime, any modulus is even
    /// or `>= 2^32`, or the chain is empty.
    pub fn new(moduli: Vec<u64>) -> Self {
        assert!(
            !moduli.is_empty(),
            "an RNS basis needs at least one modulus"
        );
        for (i, &qi) in moduli.iter().enumerate() {
            for &qj in &moduli[..i] {
                assert!(gcd(qi, qj) == 1, "moduli must be pairwise coprime");
            }
        }
        let big_q = BigUint::product_of(&moduli);
        let half_q = big_q.shr1();
        let mut garner_inv = Vec::with_capacity(moduli.len());
        let mut garner_radix = Vec::with_capacity(moduli.len() * moduli.len() / 2);
        for (i, &qi) in moduli.iter().enumerate() {
            let mut prod = 1u64 % qi;
            for &qj in &moduli[..i] {
                garner_radix.push(prod);
                prod = modops::mul_mod(prod, qj % qi, qi);
            }
            garner_inv.push(modops::inv_mod(prod, qi).expect("coprime by construction"));
        }
        Self {
            moduli,
            big_q,
            half_q,
            garner_inv,
            garner_radix,
        }
    }

    /// The moduli chain `{q_i}`.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Number of limbs `L`.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// True iff the basis is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The big modulus `Q = Π q_i`.
    pub fn big_q(&self) -> &BigUint {
        &self.big_q
    }

    /// Reduces a big integer to its residue vector.
    pub fn residues_of(&self, x: &BigUint) -> Vec<u64> {
        self.moduli.iter().map(|&q| x.mod_u64(q)).collect()
    }

    /// Reduces a signed word value to its residue vector.
    pub fn residues_of_i64(&self, v: i64) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|&q| modops::from_signed(v, q))
            .collect()
    }

    /// CRT reconstruction via Garner's mixed-radix algorithm.
    ///
    /// Returns the unique `x ∈ [0, Q)` with `x ≡ residues[i] (mod q_i)`.
    ///
    /// # Panics
    /// Panics if `residues.len() != self.len()`.
    pub fn reconstruct(&self, residues: &[u64]) -> BigUint {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        // Mixed-radix digits v_i: x = v_0 + v_1 q_0 + v_2 q_0 q_1 + ...
        let l = self.len();
        let mut digits = vec![0u64; l];
        for i in 0..l {
            let qi = self.moduli[i];
            // t = (r_i - (v_0 + v_1 q_0 + ... + v_{i-1} q_0..q_{i-2})) mod q_i
            let mut partial = 0u64;
            let mut radix = 1u64 % qi;
            for (dj, mj) in digits.iter().zip(&self.moduli).take(i) {
                partial = modops::add_mod(partial, modops::mul_mod(dj % qi, radix, qi), qi);
                radix = modops::mul_mod(radix, mj % qi, qi);
            }
            let r = residues[i] % qi;
            let diff = modops::sub_mod(r, partial, qi);
            digits[i] = modops::mul_mod(diff, self.garner_inv[i], qi);
        }
        // Horner evaluation in big arithmetic: ((v_{L-1} q_{L-2} + v_{L-2}) ...)
        let mut acc = BigUint::from(digits[l - 1]);
        for i in (0..l - 1).rev() {
            acc = acc.mul_u64(self.moduli[i]).add_u64(digits[i]);
        }
        debug_assert!(acc < self.big_q || l == 1 && acc.low_u64() < self.moduli[0]);
        acc
    }

    /// Reconstructs and centers into `(-Q/2, Q/2]`, returned as `f64`.
    ///
    /// Precision is limited to `f64` mantissa — exactly what CKKS decoding
    /// needs when dividing by the scale. The big-integer oracle of
    /// [`RnsBasis::centered_f64`].
    pub fn reconstruct_signed_f64(&self, residues: &[u64]) -> f64 {
        let x = self.reconstruct(residues);
        if x > self.half_q {
            -(self.big_q.sub(&x).to_f64())
        } else {
            x.to_f64()
        }
    }

    /// [`RnsBasis::reconstruct_signed_f64`] without a heap temporary,
    /// bit-identical to it: the Garner digits against the precomputed
    /// mixed-radix constants, the Horner evaluation into stack words,
    /// the centering in words, and the same word-by-word Horner into
    /// `f64` as `BigUint::to_f64`. The per-coefficient decode of a
    /// decryption.
    ///
    /// # Panics
    /// Panics if `residues` does not yield exactly `self.len()` values,
    /// or the basis has more than 128 moduli.
    pub fn centered_f64(&self, residues: impl IntoIterator<Item = u64>) -> f64 {
        let l = self.len();
        assert!(l <= MAX_LIMBS, "at most {MAX_LIMBS} moduli");
        // Mixed-radix digits v_i: x = v_0 + v_1 q_0 + v_2 q_0 q_1 + ...
        let mut digits = [0u64; MAX_LIMBS];
        let mut count = 0;
        for (i, r) in residues.into_iter().enumerate() {
            assert!(i < l, "residue count mismatch");
            let qi = self.moduli[i];
            let radix = &self.garner_radix[i * i.saturating_sub(1) / 2..][..i];
            let mut partial = 0u64;
            for (&dj, &rj) in digits[..i].iter().zip(radix) {
                partial = modops::add_mod(partial, modops::mul_mod(dj % qi, rj, qi), qi);
            }
            let diff = modops::sub_mod(r % qi, partial, qi);
            digits[i] = modops::mul_mod(diff, self.garner_inv[i], qi);
            count = i + 1;
        }
        assert_eq!(count, l, "residue count mismatch");
        // Horner: x = ((v_{L-1} q_{L-2} + v_{L-2}) q_{L-3} + ...) — below
        // Q, so within Q's word count
        let mut x = [0u64; MAX_LIMBS / 2];
        x[0] = digits[l - 1];
        let mut len = 1;
        for i in (0..l - 1).rev() {
            let mut carry = u128::from(digits[i]);
            for w in &mut x[..len] {
                let p = u128::from(*w) * u128::from(self.moduli[i]) + carry;
                *w = p as u64;
                carry = p >> 64;
            }
            if carry != 0 {
                x[len] = carry as u64;
                len += 1;
            }
        }
        let x = &mut x[..len];
        if cmp_words(x, self.half_q.words()) == Ordering::Greater {
            // Q − x, in Q's words (x < Q)
            let q = self.big_q.words();
            let mut neg = [0u64; MAX_LIMBS / 2];
            let mut borrow = false;
            for (k, (d, &qk)) in neg.iter_mut().zip(q).enumerate() {
                let (t, b0) = qk.overflowing_sub(x.get(k).copied().unwrap_or(0));
                let (t, b1) = t.overflowing_sub(u64::from(borrow));
                *d = t;
                borrow = b0 || b1;
            }
            -words_to_f64(&neg[..q.len()])
        } else {
            words_to_f64(x)
        }
    }

    /// Builds the Basis-Conversion table from `self` (source basis `B_1`)
    /// to `target` moduli (`B_2`), per paper §F2:
    /// step 1 multiplies by `[q̂_i^{-1}]_{q_i}`, step 2 is the
    /// `(N, L, L')`-MatModMul against `[q̂_i]_{p_j}`.
    pub fn bconv_table(&self, target: &[u64]) -> BconvTable {
        let l = self.len();
        let mut qhat_inv = Vec::with_capacity(l);
        let mut qhat_mod_p = vec![vec![0u64; target.len()]; l];
        for (row, &qi) in qhat_mod_p.iter_mut().zip(&self.moduli) {
            // q̂_i = Q / q_i as a big integer
            let (qhat, rem) = self.big_q.div_rem_u64(qi);
            debug_assert_eq!(rem, 0);
            let qhat_mod_qi = qhat.mod_u64(qi);
            qhat_inv.push(modops::inv_mod(qhat_mod_qi, qi).expect("coprime"));
            for (slot, &pj) in row.iter_mut().zip(target) {
                *slot = qhat.mod_u64(pj);
            }
        }
        BconvTable {
            source: self.moduli.clone(),
            target: target.to_vec(),
            qhat_inv,
            qhat_mod_p,
        }
    }
}

/// Precomputed Basis-Conversion parameters `B_1 → B_2` (paper Fig. 15b).
#[derive(Debug, Clone)]
pub struct BconvTable {
    source: Vec<u64>,
    target: Vec<u64>,
    /// `[q̂_i^{-1}]_{q_i}` — step-1 per-limb constants.
    qhat_inv: Vec<u64>,
    /// `qhat_mod_p[i][j] = [q̂_i]_{p_j}` — step-2 matrix (L×L').
    qhat_mod_p: Vec<Vec<u64>>,
}

impl BconvTable {
    /// Source moduli `{q_i}`.
    pub fn source(&self) -> &[u64] {
        &self.source
    }

    /// Target moduli `{p_j}`.
    pub fn target(&self) -> &[u64] {
        &self.target
    }

    /// Step-1 constants `[q̂_i^{-1}]_{q_i}`.
    pub fn qhat_inv(&self) -> &[u64] {
        &self.qhat_inv
    }

    /// Step-2 matrix entry `[q̂_i]_{p_j}`.
    pub fn qhat_mod_p(&self, i: usize, j: usize) -> u64 {
        self.qhat_mod_p[i][j]
    }

    /// Reference (scalar) basis conversion of a single coefficient:
    /// given residues of `x` in the source basis, returns the approximate
    /// residues `[x + e·Q]_{p_j}` produced by the fast base conversion
    /// (the standard HPS-style conversion with `e ∈ [0, L)` overshoot).
    #[cfg(test)]
    pub(crate) fn convert_scalar(&self, residues: &[u64]) -> Vec<u64> {
        assert_eq!(residues.len(), self.source.len());
        // step 1: b_i = r_i * qhat_inv_i mod q_i
        let b: Vec<u64> = residues
            .iter()
            .zip(&self.source)
            .zip(&self.qhat_inv)
            .map(|((&r, &q), &hinv)| modops::mul_mod(r % q, hinv, q))
            .collect();
        // step 2: c_j = sum_i b_i * [q̂_i]_{p_j} mod p_j
        self.target
            .iter()
            .enumerate()
            .map(|(j, &p)| {
                let mut acc = 0u64;
                for (i, &bi) in b.iter().enumerate() {
                    acc =
                        modops::add_mod(acc, modops::mul_mod(bi % p, self.qhat_mod_p[i][j], p), p);
                }
                acc
            })
            .collect()
    }
}

/// Compares little-endian word strings as numbers (missing high words
/// read as zero).
fn cmp_words(a: &[u64], b: &[u64]) -> Ordering {
    let word = |v: &[u64], k: usize| v.get(k).copied().unwrap_or(0);
    (0..a.len().max(b.len()))
        .rev()
        .map(|k| word(a, k).cmp(&word(b, k)))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Little-endian words to `f64`, most significant first — the Horner
/// of `BigUint::to_f64` (a leading zero word leaves `0.0` unchanged).
fn words_to_f64(words: &[u64]) -> f64 {
    words
        .iter()
        .rev()
        .fold(0.0, |acc, &w| acc * 18_446_744_073_709_551_616.0 + w as f64)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes;

    fn basis(l: usize) -> RnsBasis {
        RnsBasis::new(primes::ntt_prime_chain(28, 1 << 10, l).unwrap())
    }

    #[test]
    fn reconstruct_small_values() {
        let b = basis(4);
        for x in [0u64, 1, 42, 1 << 27] {
            let res = b.residues_of(&BigUint::from(x));
            assert_eq!(b.reconstruct(&res), BigUint::from(x));
        }
    }

    #[test]
    fn reconstruct_large_value_roundtrip() {
        let b = basis(5);
        // x slightly below Q
        let x = b.big_q().sub(&BigUint::from(12345u64));
        let res = b.residues_of(&x);
        assert_eq!(b.reconstruct(&res), x);
    }

    #[test]
    fn signed_centering() {
        let b = basis(3);
        for v in [-1i64, -42, 1, 42, 0] {
            let res = b.residues_of_i64(v);
            let got = b.reconstruct_signed_f64(&res);
            assert_eq!(got, v as f64, "v={v}");
        }
    }

    #[test]
    fn single_limb_basis() {
        let b = basis(1);
        let q = b.moduli()[0];
        assert_eq!(b.reconstruct(&[q - 1]), BigUint::from(q - 1));
    }

    #[test]
    fn bconv_exact_for_small_values() {
        // For x < Q with no overshoot ambiguity, exact conversion holds
        // whenever the sum Σ b_i·q̂_i stays below... in general the fast
        // conversion yields x + e·Q; small x in a big basis keeps e small,
        // and we verify the result mod p equals x or x + eQ for e < L.
        let b = basis(3);
        let target = primes::ntt_prime_chain(28, 1 << 10, 6).unwrap()[3..].to_vec();
        let table = b.bconv_table(&target);
        let x = 987_654_321u64;
        let res = b.residues_of(&BigUint::from(x));
        let conv = table.convert_scalar(&res);
        for (j, &p) in target.iter().enumerate() {
            let mut ok = false;
            for e in 0..b.len() as u64 + 1 {
                let want = BigUint::from(e)
                    .mul(b.big_q())
                    .add(&BigUint::from(x))
                    .mod_u64(p);
                if conv[j] == want {
                    ok = true;
                    break;
                }
            }
            assert!(ok, "limb {j}: got {} for x={x}", conv[j]);
        }
    }

    #[test]
    #[should_panic(expected = "pairwise coprime")]
    fn rejects_non_coprime() {
        let _ = RnsBasis::new(vec![15, 21]);
    }

    #[test]
    fn bconv_table_shapes() {
        let b = basis(4);
        let target: Vec<u64> = primes::ntt_prime_chain(28, 1 << 10, 7).unwrap()[4..].to_vec();
        let t = b.bconv_table(&target);
        assert_eq!(t.source().len(), 4);
        assert_eq!(t.target().len(), 3);
        assert_eq!(t.qhat_inv().len(), 4);
        assert_eq!(t.qhat_mod_p.len(), 4);
        assert_eq!(t.qhat_mod_p[0].len(), 3);
    }
}
