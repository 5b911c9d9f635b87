//! BAT lazy modular reduction (paper App. J).
//!
//! A 64-bit partial sum `psum` (from a 32×32 product chain) is split
//! into `2K` bytes; the **high** `K` bytes are reduced through a
//! precomputed `K×K` byte matrix `LC[j][k]` (chunks of `2^{8(j+K)} mod
//! q`) on the MXU, then added to the low 32 bits. The result fits 32
//! bits but may exceed `q` — a *lazy* representative, finalized by
//! Barrett when the chain ends (App. G).
//!
//! The paper measures this variant *losing* on TPU (Fig. 13): the `K×K`
//! reduction dimension cannot fill a 128/256-wide systolic array. The
//! implementation here exists to reproduce exactly that result.

use super::chunk;
use cross_math::modops;

/// Precompiled lazy-reduction matrix for one modulus.
#[derive(Debug, Clone)]
pub struct LazyReducer {
    q: u64,
    k: usize,
    bp: u32,
    /// `lc[j][k]` = chunk `k` of `2^{bp(j+K)} mod q` — `K×K` bytes.
    lc: Vec<Vec<u64>>,
}

impl LazyReducer {
    /// Precomputes `LC` for modulus `q` at `bp`-bit chunk precision.
    pub fn new(q: u64, bp: u32) -> Self {
        let k = chunk::chunk_count(q, bp);
        let lc = (0..k)
            .map(|j| {
                let basis = modops::pow_mod(2, (j + k) as u64 * bp as u64, q);
                chunk::decompose(basis, k, bp)
            })
            .collect();
        Self { q, k, bp, lc }
    }

    /// Lazily reduces a `2K`-chunk partial sum (`psum < 2^{2K·bp}`, the
    /// width a `K×K` chunk product can produce) into `K` chunks
    /// (`z ≡ psum mod q`, possibly `> q`).
    ///
    /// # Panics
    /// Panics if `psum` exceeds the `2K`-chunk width.
    pub fn reduce_lazy(&self, psum: u64) -> u64 {
        let width = 2 * self.k as u32 * self.bp;
        assert!(
            width >= 64 || psum < (1u64 << width),
            "psum exceeds the 2K-chunk width the App. J mapping covers"
        );
        let all = chunk::decompose(psum, 2 * self.k, self.bp);
        let (low, high) = all.split_at(self.k);
        // high-byte contribution via the LC matrix: Σ_k (Σ_j c_{j+K}·LC[j][k])·2^{bp·k}
        let mut acc = chunk::merge(low, self.bp);
        for kk in 0..self.k {
            let mut col = 0u64;
            for (h, lc_row) in high.iter().zip(&self.lc) {
                col += h * lc_row[kk];
            }
            acc += col << (kk as u32 * self.bp);
        }
        // One more fold if the matmul route itself overflowed 32 bits.
        if acc >> 32 != 0 {
            acc = self.reduce_lazy(acc);
        }
        acc
    }

    /// Strict reduction (lazy + final exact reduction).
    pub fn reduce(&self, psum: u64) -> u64 {
        self.reduce_lazy(psum) % self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 268_369_921;

    #[test]
    fn matrix_shape() {
        let r = LazyReducer::new(Q, 8);
        assert_eq!(r.k, 4);
        assert_eq!(r.lc.len(), 4);
        assert!(r.lc.iter().all(|row| row.len() == 4));
        assert!(r.lc.iter().all(|row| row.iter().all(|&v| v < 256)));
    }

    #[test]
    fn reduces_correctly() {
        let r = LazyReducer::new(Q, 8);
        for z in [
            0u64,
            1,
            Q,
            Q + 1,
            u32::MAX as u64,
            (Q - 1) * (Q - 1),
            u64::MAX / 2,
            0xDEAD_BEEF_CAFE_BABE,
        ] {
            assert_eq!(r.reduce(z), z % Q, "z={z}");
        }
    }

    #[test]
    fn lazy_fits_32_bits() {
        let r = LazyReducer::new(Q, 8);
        for z in [(Q - 1) * (Q - 1), u64::MAX / 3, 0xFFFF_FFFF_FFFF_0001] {
            let lazy = r.reduce_lazy(z);
            assert!(lazy <= u32::MAX as u64, "z={z} lazy={lazy}");
            assert_eq!(lazy % Q, z % Q, "z={z}");
        }
    }

    #[test]
    fn works_for_other_moduli() {
        // Inputs stay within the 2K-chunk width of each modulus
        // (the width a K×K chunk-product chain can actually produce).
        for q in [65_537u64, 1_073_479_681, 2_147_473_409] {
            let r = LazyReducer::new(q, 8);
            let width = 2 * r.k as u32 * 8;
            let cap = if width >= 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            for z in [(q - 1) * (q - 1), cap / 5, q + 123, cap] {
                assert_eq!(r.reduce(z), z % q, "q={q} z={z}");
            }
        }
    }
}
