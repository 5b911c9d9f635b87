//! The host NTT — the *functional* (CPU) transform the product runs.
//!
//! One engine at every degree: the radix-2 dataflow of [`crate::ntt`]
//! (natural in → bit-reversed out, and back) run on the Shoup/lazy
//! arithmetic of [`crate::small_ntt`], whose stage schedule keeps the
//! six block-local stages inside cache-hot 64-element blocks. The
//! butterflies run in 32-bit SIMD lanes (AVX2) for every modulus below
//! 2³⁰ — every parameter set's — and in 64-bit words otherwise
//! (`small_ntt::lanes` is the rule). Outputs are
//! bit-identical to [`crate::ntt::forward_inplace`] /
//! [`crate::ntt::inverse_inplace`] either way, so the engine is a
//! transparent drop-in for every evaluation-domain consumer. Its tables
//! are the Shoup companions of [`NttTables`]' own bit-reversed
//! twiddles, built once per modulus on first use
//! (`NttTables::shoup_tables`); the lanes read the same tables.
//!
//! A transform here is one polynomial on one thread. Batches fan out
//! one level up, in [`crate::PolyBatch::to_evaluation`] /
//! [`crate::PolyBatch::to_coefficient`], over every limb and batch
//! entry at once. Each thread counts the transforms it runs
//! ([`transforms`]), so a test on a thread that keeps its work inline
//! (`cross_math::par::mark_worker`) sees exactly one operator's.
//!
//! There is deliberately no cache decomposition (six-step, four-step)
//! around these loops: every degree the parameter sets use fits the
//! host's L2, where transposes cost more than the strided passes they
//! avoid (DESIGN.md §10 has the measurements).

use crate::small_ntt;
use crate::tables::NttTables;
use std::cell::Cell;

thread_local! {
    /// `(forward, inverse)` transforms run on this thread.
    static TRANSFORMS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// `(forward, inverse)` host transforms this thread has run since it
/// started — one per call, whichever arithmetic ran it.
/// Take the difference around an operator to count its transforms.
pub fn transforms() -> (u64, u64) {
    TRANSFORMS.with(Cell::get)
}

/// Forward negacyclic NTT through the host engine, natural input →
/// bit-reversed output. Bit-identical to
/// [`crate::ntt::forward_inplace`].
///
/// # Panics
/// Panics if `a.len() != tables.n()`.
pub fn forward_inplace(a: &mut [u64], tables: &NttTables) {
    small_ntt::negacyclic_forward(a, tables.shoup_tables());
    TRANSFORMS.with(|c| c.set((c.get().0 + 1, c.get().1)));
}

/// Inverse negacyclic NTT through the host engine (bit-reversed input
/// → natural output, includes `N⁻¹`). Bit-identical to
/// [`crate::ntt::inverse_inplace`].
///
/// # Panics
/// Panics if `a.len() != tables.n()`.
pub fn inverse_inplace(a: &mut [u64], tables: &NttTables) {
    small_ntt::negacyclic_inverse(a, tables.shoup_tables());
    TRANSFORMS.with(|c| c.set((c.get().0, c.get().1 + 1)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt;
    use cross_math::primes;

    fn tables(logn: u32, bits: u32) -> NttTables {
        let n = 1usize << logn;
        NttTables::new(n, primes::ntt_prime(bits, n as u64, 0).unwrap())
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
        // and every degree up to Set C's, at the lanes' prime widths
        // and at 31 bits, which takes the 64-bit words on every host.
        for bits in [20u32, 28, 30, 31] {
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
    fn counts_each_transform_on_its_own_thread() {
        let t = tables(10, 28);
        let mut a = residues(t.n(), t.q(), 5);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(transforms(), (0, 0), "a fresh thread has run none");
                forward_inplace(&mut a, &t);
                forward_inplace(&mut a, &t);
                inverse_inplace(&mut a, &t);
                assert_eq!(transforms(), (2, 1));
            });
        });
    }

    #[test]
    #[should_panic(expected = "input length must equal the ring degree")]
    fn rejects_wrong_length() {
        let t = tables(6, 28);
        forward_inplace(&mut [0u64; 32], &t);
    }
}
