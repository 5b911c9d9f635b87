//! The host NTT engine — the default *functional* (CPU) transform of
//! the stack.
//!
//! One engine at every degree: the radix-2 dataflow of [`crate::ntt`]
//! (natural in → bit-reversed out, and back) run on the Shoup/lazy
//! arithmetic of [`crate::small_ntt`], whose stage schedule keeps the
//! six block-local stages inside cache-hot 64-element blocks. Outputs
//! are bit-identical to [`crate::ntt::forward_inplace`] /
//! [`crate::ntt::inverse_inplace`], so the engine is a transparent
//! drop-in for every evaluation-domain consumer. Its tables are the
//! Shoup companions of [`NttTables`]' own bit-reversed twiddles, built
//! once per modulus on first use ([`NttTables::shoup_tables`]).
//!
//! There is deliberately no cache decomposition (six-step, four-step)
//! around these loops: every degree the parameter sets use fits the
//! host's L2, where transposes cost more than the strided passes they
//! avoid (DESIGN.md §10 has the measurements).

use crate::engines::{NttEngine, OutputOrder};
use crate::small_ntt;
use crate::tables::NttTables;
use cross_math::par;
use std::sync::Arc;

/// Forward negacyclic NTT through the host engine, natural input →
/// bit-reversed output. Bit-identical to
/// [`crate::ntt::forward_inplace`].
///
/// # Panics
/// Panics if `a.len() != tables.n()`.
pub fn forward_inplace(a: &mut [u64], tables: &NttTables) {
    small_ntt::negacyclic_forward(a, tables.shoup_tables());
}

/// Inverse negacyclic NTT through the host engine (bit-reversed input
/// → natural output, includes `N⁻¹`). Bit-identical to
/// [`crate::ntt::inverse_inplace`].
///
/// # Panics
/// Panics if `a.len() != tables.n()`.
pub fn inverse_inplace(a: &mut [u64], tables: &NttTables) {
    small_ntt::negacyclic_inverse(a, tables.shoup_tables());
}

/// Runs `f` on each of the `batch` polynomials stored back-to-back in
/// `a`, fanned out across the batch on as many pool workers as
/// `log₂N` butterfly layers over `batch · N` residues pay for.
fn for_each_poly(a: &mut [u64], batch: usize, n: usize, f: impl Fn(&mut [u64]) + Sync) {
    assert_eq!(a.len(), batch * n, "batch shape mismatch");
    let work = a.len() * n.trailing_zeros() as usize;
    let mut polys: Vec<&mut [u64]> = a.chunks_exact_mut(n).collect();
    par::par_for_each_sized(&mut polys, work, |_, p| f(p));
}

/// Forward-transforms `batch` polynomials stored back-to-back.
///
/// # Panics
/// Panics if `a.len() != batch · N`.
pub fn forward_batch_inplace(a: &mut [u64], batch: usize, tables: &NttTables) {
    for_each_poly(a, batch, tables.n(), |p| forward_inplace(p, tables));
}

/// Inverse counterpart of [`forward_batch_inplace`].
///
/// # Panics
/// Panics if `a.len() != batch · N`.
pub fn inverse_batch_inplace(a: &mut [u64], batch: usize, tables: &NttTables) {
    for_each_poly(a, batch, tables.n(), |p| inverse_inplace(p, tables));
}

/// The host engine behind the [`NttEngine`] trait — same bit-reversed
/// output contract as [`crate::engines::CooleyTukeyNtt`], so the two
/// are interchangeable value-for-value.
#[derive(Debug, Clone)]
pub struct HostNtt {
    tables: Arc<NttTables>,
}

impl HostNtt {
    /// Builds the engine over shared tables (reuses the Shoup tables
    /// cached on them, building those on first use).
    pub fn new(tables: Arc<NttTables>) -> Self {
        Self { tables }
    }
}

impl NttEngine for HostNtt {
    fn name(&self) -> &'static str {
        "lazy-radix2"
    }

    fn output_order(&self) -> OutputOrder {
        OutputOrder::BitReversed
    }

    fn tables(&self) -> &NttTables {
        &self.tables
    }

    fn forward(&self, a: &[u64]) -> Vec<u64> {
        let mut out = a.to_vec();
        forward_inplace(&mut out, &self.tables);
        out
    }

    fn inverse(&self, a: &[u64]) -> Vec<u64> {
        let mut out = a.to_vec();
        inverse_inplace(&mut out, &self.tables);
        out
    }

    fn forward_batch(&self, a: &[u64], batch: usize) -> Vec<u64> {
        let mut out = a.to_vec();
        forward_batch_inplace(&mut out, batch, &self.tables);
        out
    }

    fn inverse_batch(&self, a: &[u64], batch: usize) -> Vec<u64> {
        let mut out = a.to_vec();
        inverse_batch_inplace(&mut out, batch, &self.tables);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt;
    use cross_math::primes;

    fn tables(logn: u32, bits: u32) -> Arc<NttTables> {
        let n = 1usize << logn;
        Arc::new(NttTables::new(
            n,
            primes::ntt_prime(bits, n as u64, 0).unwrap(),
        ))
    }

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
    fn bit_identical_to_butterflies_every_size() {
        // Single-body sizes (≤ 64), the first blocked ones (128, 256)
        // and every degree up to Set C's, at three prime widths.
        for bits in [20u32, 28, 30] {
            for logn in 1..=14u32 {
                let t = tables(logn, bits);
                let a = residues(t.n(), t.q(), logn as u64 + 1);
                let mut got = a.clone();
                forward_inplace(&mut got, &t);
                let mut want = a.clone();
                ntt::forward_inplace(&mut want, &t);
                assert_eq!(got, want, "forward bits={bits} logn={logn}");
                let mut back = got;
                inverse_inplace(&mut back, &t);
                let mut back_ref = want;
                ntt::inverse_inplace(&mut back_ref, &t);
                assert_eq!(back, back_ref, "inverse bits={bits} logn={logn}");
                assert_eq!(back, a, "roundtrip bits={bits} logn={logn}");
            }
        }
    }

    #[test]
    fn batch_matches_loop_and_parallel_threshold() {
        // 2^13 × 10 residues × 13 layers is two workers' worth under
        // the fan-out gate; the smaller shapes stay serial.
        for (logn, batch) in [(6u32, 1usize), (6, 3), (9, 8), (11, 8), (13, 10)] {
            let t = tables(logn, 28);
            let a = residues(batch * t.n(), t.q(), 42);
            let mut fused = a.clone();
            forward_batch_inplace(&mut fused, batch, &t);
            let looped: Vec<u64> = a
                .chunks(t.n())
                .flat_map(|p| {
                    let mut x = p.to_vec();
                    forward_inplace(&mut x, &t);
                    x
                })
                .collect();
            assert_eq!(fused, looped, "logn={logn} batch={batch}");
            let mut back = fused;
            inverse_batch_inplace(&mut back, batch, &t);
            assert_eq!(back, a, "roundtrip logn={logn} batch={batch}");
        }
    }

    #[test]
    #[should_panic(expected = "input length must equal the ring degree")]
    fn rejects_wrong_length() {
        let t = tables(6, 28);
        forward_inplace(&mut [0u64; 32], &t);
    }

    #[test]
    fn engine_trait_roundtrip() {
        let t = tables(7, 28);
        let e = HostNtt::new(t.clone());
        assert_eq!(e.output_order(), OutputOrder::BitReversed);
        let a = residues(3 * t.n(), t.q(), 5);
        let fused = e.forward_batch(&a, 3);
        let looped: Vec<u64> = a.chunks(t.n()).flat_map(|p| e.forward(p)).collect();
        assert_eq!(fused, looped);
        assert_eq!(e.inverse_batch(&fused, 3), a);
    }
}
