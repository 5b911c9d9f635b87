//! The RNS ("double-CRT") context — degree, basis and per-limb NTT
//! tables — and [`RnsPoly`], the batch-of-one spelling of
//! [`PolyBatch`].
//!
//! An [`RnsPoly`] is the paper's post-CRT ciphertext polynomial
//! (§II-A3): `L` limbs of degree-`N` residues that are processed
//! independently — the limb-level parallelism every accelerator exploits.
//!
//! A context also owns the [`LimbPool`] its polynomials draw their limbs
//! from and give them back to; the contexts of one CKKS context share
//! one pool, as they share their NTT tables.

use crate::batch::PolyBatch;
use crate::pool::LimbPool;
use crate::tables::NttTables;
use cross_math::rns::RnsBasis;
use std::sync::Arc;

/// Shared context: degree, RNS basis, per-limb NTT tables and the
/// pool of spare limb buffers.
#[derive(Debug, Clone)]
pub struct RnsContext {
    n: usize,
    basis: RnsBasis,
    tables: Vec<Arc<NttTables>>,
    pool: Arc<LimbPool>,
}

impl RnsContext {
    /// Builds a context for degree `n` over the given moduli chain.
    ///
    /// # Panics
    /// Panics if any modulus is not NTT-friendly for degree `n`.
    pub fn new(n: usize, moduli: Vec<u64>) -> Self {
        let tables = moduli
            .iter()
            .map(|&q| Arc::new(NttTables::new(n, q)))
            .collect();
        Self::with_tables(n, tables)
    }

    /// Builds a context over pre-built per-modulus tables, so several
    /// contexts (CKKS levels, key-switching extensions) share one table
    /// — and one cached set of host-engine twiddles — per modulus instead of
    /// rebuilding `O(N)` twiddle material per context. The context gets
    /// a limb pool of its own.
    ///
    /// # Panics
    /// Panics if `tables` is empty or any table's degree differs from `n`.
    pub fn with_tables(n: usize, tables: Vec<Arc<NttTables>>) -> Self {
        Self::with_pool(tables, LimbPool::new(n))
    }

    /// Builds a context over pre-built tables that draws its limbs from
    /// a shared `pool`, of the pool's degree.
    ///
    /// # Panics
    /// Panics if `tables` is empty or any table's degree differs from
    /// the pool's.
    pub fn with_pool(tables: Vec<Arc<NttTables>>, pool: Arc<LimbPool>) -> Self {
        assert!(!tables.is_empty(), "context needs at least one modulus");
        let n = pool.n();
        for t in &tables {
            assert_eq!(t.n(), n, "table degree mismatch");
        }
        let basis = RnsBasis::new(tables.iter().map(|t| t.q()).collect());
        Self {
            n,
            basis,
            tables,
            pool,
        }
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of limbs `L`.
    pub(crate) fn level_count(&self) -> usize {
        self.basis.len()
    }

    /// The RNS basis.
    pub(crate) fn basis(&self) -> &RnsBasis {
        &self.basis
    }

    /// The moduli chain.
    pub fn moduli(&self) -> &[u64] {
        self.basis.moduli()
    }

    /// Per-limb NTT tables.
    pub fn tables(&self) -> &[Arc<NttTables>] {
        &self.tables
    }

    /// The pool this context's polynomials draw their limbs from.
    pub fn pool(&self) -> &Arc<LimbPool> {
        &self.pool
    }
}

/// A single RNS polynomial: the `batch() == 1` case of [`PolyBatch`],
/// which owns every kernel. The alias names that case in signatures
/// (ciphertext components, plaintexts, key material); the boundaries
/// that need exactly one polynomial assert it.
pub type RnsPoly = PolyBatch;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Domain;
    use cross_math::primes;

    fn ctx(logn: u32, l: usize) -> Arc<RnsContext> {
        let n = 1usize << logn;
        let moduli = primes::ntt_prime_chain(28, n as u64, l).unwrap();
        Arc::new(RnsContext::new(n, moduli))
    }

    #[test]
    fn signed_lift_and_reconstruct() {
        let c = ctx(4, 3);
        let coeffs: Vec<i64> = (0..16).map(|i| i - 8).collect();
        let p = RnsPoly::from_signed_coeffs(c, &coeffs);
        assert_eq!(p.batch(), 1);
        for (j, &v) in coeffs.iter().enumerate() {
            assert_eq!(p.coeff_signed_f64(j), v as f64);
        }
    }

    #[test]
    fn ntt_roundtrip_all_limbs() {
        let c = ctx(5, 4);
        let coeffs: Vec<i64> = (0..32).map(|i| 3 * i - 40).collect();
        let p = RnsPoly::from_signed_coeffs(c, &coeffs);
        let mut r = p.clone();
        r.to_evaluation();
        assert_eq!(r.domain(), Domain::Evaluation);
        r.to_coefficient();
        assert_eq!(r.limbs(), p.limbs());
    }

    #[test]
    fn pointwise_mul_is_negacyclic_product() {
        let c = ctx(4, 2);
        let a_coeffs: Vec<i64> = (0..16).map(|i| i % 5 - 2).collect();
        let b_coeffs: Vec<i64> = (0..16).map(|i| (i * 3) % 7 - 3).collect();
        let mut a = RnsPoly::from_signed_coeffs(c.clone(), &a_coeffs);
        let mut b = RnsPoly::from_signed_coeffs(c.clone(), &b_coeffs);
        a.to_evaluation();
        b.to_evaluation();
        let mut prod = a.mul_pointwise(&b);
        prod.to_coefficient();
        // Oracle: schoolbook negacyclic product over the integers, then CRT.
        let n = 16usize;
        let mut want = vec![0i64; n];
        for i in 0..n {
            for j in 0..n {
                let p = a_coeffs[i] * b_coeffs[j];
                if i + j < n {
                    want[i + j] += p;
                } else {
                    want[i + j - n] -= p;
                }
            }
        }
        for (j, &w) in want.iter().enumerate() {
            assert_eq!(prod.coeff_signed_f64(j), w as f64, "coeff {j}");
        }
    }

    #[test]
    fn add_neg_cancels() {
        let c = ctx(4, 3);
        let coeffs: Vec<i64> = (0..16).map(|i| 7 * i - 50).collect();
        let p = RnsPoly::from_signed_coeffs(c.clone(), &coeffs);
        let z = p.add(&p.neg());
        for j in 0..16 {
            assert_eq!(z.coeff_signed_f64(j), 0.0);
        }
    }

    #[test]
    fn per_limb_scalar_mul() {
        let c = ctx(4, 2);
        let p = RnsPoly::from_signed_coeffs(c.clone(), &[1i64; 16]);
        let s = vec![3u64, 5u64];
        let r = p.mul_scalar_per_limb(&s);
        for (i, limb) in r.limbs().iter().enumerate() {
            assert!(limb.iter().all(|&x| x == s[i]));
        }
    }

    #[test]
    fn automorphism_limbwise_consistent() {
        let c = ctx(5, 3);
        let coeffs: Vec<i64> = (0..32).map(|i| i - 16).collect();
        let p = RnsPoly::from_signed_coeffs(c.clone(), &coeffs);
        let r = p.automorphism(5);
        // Oracle on signed coefficients.
        let n = 32usize;
        let mut want = vec![0i64; n];
        for (j, &v) in coeffs.iter().enumerate() {
            let e = (j * 5) % (2 * n);
            if e < n {
                want[e] += v;
            } else {
                want[e - n] -= v;
            }
        }
        for (j, &w) in want.iter().enumerate() {
            assert_eq!(r.coeff_signed_f64(j), w as f64, "coeff {j}");
        }
    }

    #[test]
    fn truncated_context_drop_limb() {
        let c = ctx(4, 3);
        let p = RnsPoly::from_signed_coeffs(c.clone(), &[2i64; 16]);
        let d = p.truncate_to(Arc::new(RnsContext::with_tables(
            16,
            c.tables()[..2].to_vec(),
        )));
        assert_eq!(d.level_count(), 2);
        assert_eq!(d.coeff_signed_f64(0), 2.0);
    }
}
