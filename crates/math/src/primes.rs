//! NTT-friendly prime generation and roots of unity.
//!
//! CKKS over RNS (paper §II-A3) needs a chain of pairwise-coprime word
//! primes `q_i ≡ 1 (mod 2N)` so the negacyclic NTT exists per limb.
//! CROSS picks `log2 q = 28` under 128-bit security (paper §V-A); this
//! module generates such chains for any bit width below 32 and finds
//! the primitive `2N`-th roots of unity (`ψ`) each NTT needs.

use crate::modops::{mul_mod, pow_mod};

/// Deterministic Miller-Rabin primality test, valid for all `n < 2^64`.
///
/// Uses the standard 12-base witness set.
pub fn is_prime(n: u64) -> bool {
    const SMALL: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    if n < 2 {
        return false;
    }
    for &p in &SMALL {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for &a in &SMALL {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Returns the `index`-th largest prime `q < 2^bits` with `q ≡ 1 (mod 2N)`.
///
/// `index = 0` gives the largest such prime, `index = 1` the next, etc.
/// Returns `None` when the supply below `2^bits` is exhausted.
///
/// # Panics
/// Panics if `bits` is not in `[8, 32]` or `n` is not a power of two.
pub fn ntt_prime(bits: u32, n: u64, index: usize) -> Option<u64> {
    assert!((8..=32).contains(&bits), "bit width must be in [8, 32]");
    assert!(n.is_power_of_two(), "degree must be a power of two");
    let step = 2 * n;
    let top = (1u64 << bits) - 1;
    let mut candidate = top - (top % step) + 1;
    if candidate > top {
        candidate -= step;
    }
    let mut found = 0usize;
    while candidate > step {
        if is_prime(candidate) {
            if found == index {
                return Some(candidate);
            }
            found += 1;
        }
        candidate -= step;
    }
    None
}

/// Generates a chain of `count` distinct NTT-friendly primes of the given
/// bit width for degree `n`, largest first.
///
/// Returns `None` if fewer than `count` exist below `2^bits`.
pub fn ntt_prime_chain(bits: u32, n: u64, count: usize) -> Option<Vec<u64>> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        out.push(ntt_prime(bits, n, i)?);
    }
    Some(out)
}

/// Factors `m` by trial division (sufficient for `q - 1 < 2^32`).
pub(crate) fn factorize(mut m: u64) -> Vec<u64> {
    let mut factors = Vec::new();
    let mut d = 2u64;
    while d * d <= m {
        if m.is_multiple_of(d) {
            factors.push(d);
            while m.is_multiple_of(d) {
                m /= d;
            }
        }
        d += 1;
    }
    if m > 1 {
        factors.push(m);
    }
    factors
}

/// Finds a generator of the multiplicative group `Z_q^*` for prime `q`.
pub(crate) fn primitive_root(q: u64) -> u64 {
    let phi = q - 1;
    let factors = factorize(phi);
    'candidate: for g in 2..q {
        for &p in &factors {
            if pow_mod(g, phi / p, q) == 1 {
                continue 'candidate;
            }
        }
        return g;
    }
    unreachable!("every prime field has a generator")
}

/// Returns a primitive `order`-th root of unity modulo prime `q`.
///
/// # Panics
/// Panics if `order` does not divide `q - 1` (no such root exists).
pub(crate) fn root_of_unity(order: u64, q: u64) -> u64 {
    assert!(
        (q - 1).is_multiple_of(order),
        "order {order} must divide q-1 = {}",
        q - 1
    );
    let g = primitive_root(q);
    let w = pow_mod(g, (q - 1) / order, q);
    debug_assert_eq!(pow_mod(w, order, q), 1);
    debug_assert_ne!(pow_mod(w, order / 2, q), 1);
    w
}

/// Returns `ψ`, a primitive `2N`-th root of unity mod `q` — the twiddle
/// base of the negacyclic NTT (satisfies `ψ^N ≡ -1 mod q`).
pub fn negacyclic_psi(n: u64, q: u64) -> u64 {
    let psi = root_of_unity(2 * n, q);
    debug_assert_eq!(pow_mod(psi, n, q), q - 1, "psi^N must be -1");
    psi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primality() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 65537, 268_369_921];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        let composites = [0u64, 1, 4, 9, 91, 65536, 268_369_920, 3215031751];
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn strong_pseudoprimes_rejected() {
        // Known strong pseudoprimes to few bases; the 12-base set kills them.
        for c in [3_215_031_751u64, 3_474_749_660_383, 341_550_071_728_321] {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn ntt_primes_have_right_form() {
        for logn in [10u32, 12, 16] {
            let n = 1u64 << logn;
            let q = ntt_prime(28, n, 0).expect("a 28-bit NTT prime exists");
            assert!(is_prime(q));
            assert_eq!(q % (2 * n), 1);
            assert!(q < (1 << 28));
        }
    }

    #[test]
    fn prime_chain_is_distinct_and_descending() {
        let n = 1u64 << 12;
        let chain = ntt_prime_chain(28, n, 8).expect("8 primes exist");
        for w in chain.windows(2) {
            assert!(w[0] > w[1], "chain must be strictly descending");
        }
        for &q in &chain {
            assert!(is_prime(q) && q % (2 * n) == 1);
        }
    }

    #[test]
    fn psi_has_negacyclic_property() {
        let n = 1u64 << 10;
        let q = ntt_prime(28, n, 0).unwrap();
        let psi = negacyclic_psi(n, q);
        assert_eq!(pow_mod(psi, n, q), q - 1);
        assert_eq!(pow_mod(psi, 2 * n, q), 1);
    }

    #[test]
    fn factorize_examples() {
        assert_eq!(factorize(1), Vec::<u64>::new());
        assert_eq!(factorize(2), vec![2]);
        assert_eq!(factorize(360), vec![2, 3, 5]);
        assert_eq!(factorize(268_369_920), vec![2, 3, 5, 7, 13]);
    }

    #[test]
    fn primitive_root_generates() {
        let q = 65537u64;
        let g = primitive_root(q);
        // g^((q-1)/2) must be -1 for a generator of a prime field.
        assert_eq!(pow_mod(g, (q - 1) / 2, q), q - 1);
    }
}
