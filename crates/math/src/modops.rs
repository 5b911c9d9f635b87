//! Plain word-level modular arithmetic on `u64` values.
//!
//! These are the reference implementations every optimized reduction
//! strategy (Barrett, Montgomery, Shoup, BAT-lazy) is tested against.
//! All functions assume `q >= 2` and, unless stated otherwise, operands
//! already reduced to `[0, q)`.

/// Adds two residues modulo `q`.
///
/// # Panics
/// Debug-panics if an operand is not reduced.
#[inline]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q, "operands must be reduced");
    let s = a + b;
    if s >= q {
        s - q
    } else {
        s
    }
}

/// Subtracts `b` from `a` modulo `q`.
#[inline]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q, "operands must be reduced");
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Negates a residue modulo `q`.
#[inline]
pub fn neg_mod(a: u64, q: u64) -> u64 {
    debug_assert!(a < q, "operand must be reduced");
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Multiplies two residues modulo `q` via a 128-bit intermediate product.
///
/// When both operands fit 32 bits (every NTT-prime residue in this
/// codebase), the product fits `u64` and a native division replaces
/// the 128-bit libcall — same canonical result, measurably faster on
/// the pointwise-multiply hot paths.
#[inline]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    if (a | b) >> 32 == 0 {
        (a * b) % q
    } else {
        ((a as u128 * b as u128) % q as u128) as u64
    }
}

/// Barrett constant `⌊2⁶⁴/q⌋` for [`reduce_barrett`] and
/// [`mul_mod_barrett32`] — computed once per limb, amortized over a
/// pointwise loop.
#[inline]
pub fn barrett_mu(q: u64) -> u64 {
    ((1u128 << 64) / q as u128) as u64
}

/// Division-free Barrett reduction of any `x < 2⁶⁴` against a
/// precomputed `mu = ⌊2⁶⁴/q⌋`: the estimate `⌊x·mu/2⁶⁴⌋` undershoots
/// `⌊x/q⌋` by at most 2, so two conditional subtracts restore the
/// canonical residue.
#[inline(always)]
pub fn reduce_barrett(x: u64, q: u64, mu: u64) -> u64 {
    let approx = ((x as u128 * mu as u128) >> 64) as u64;
    let mut t = x.wrapping_sub(approx.wrapping_mul(q));
    while t >= q {
        t -= q;
    }
    t
}

/// Division-free Barrett product `a·b mod q` for 32-bit operands
/// ([`reduce_barrett`] of the exact product) — bit-identical to
/// [`mul_mod`] and much faster than a division in variable-times-
/// variable inner loops (where Shoup precomputation cannot apply).
#[inline(always)]
pub fn mul_mod_barrett32(a: u64, b: u64, q: u64, mu: u64) -> u64 {
    debug_assert!((a | b) >> 32 == 0, "operands must fit 32 bits");
    reduce_barrett(a * b, q, mu)
}

/// Modular exponentiation `base^exp mod q` by square-and-multiply.
pub fn pow_mod(mut base: u64, mut exp: u64, q: u64) -> u64 {
    base %= q;
    let mut acc: u64 = 1 % q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, q);
        }
        base = mul_mod(base, base, q);
        exp >>= 1;
    }
    acc
}

/// Modular inverse of `a` modulo `q` via the extended Euclidean algorithm.
///
/// Returns `None` when `gcd(a, q) != 1` (the inverse does not exist).
pub fn inv_mod(a: u64, q: u64) -> Option<u64> {
    if a == 0 {
        return None;
    }
    let (mut old_r, mut r) = (a as i128, q as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let quot = old_r / r;
        let tmp_r = old_r - quot * r;
        old_r = r;
        r = tmp_r;
        let tmp_s = old_s - quot * s;
        old_s = s;
        s = tmp_s;
    }
    if old_r != 1 {
        return None;
    }
    let mut inv = old_s % q as i128;
    if inv < 0 {
        inv += q as i128;
    }
    Some(inv as u64)
}

/// Reduces a `u128` into `[0, q)`.
#[inline]
pub fn reduce_u128(a: u128, q: u64) -> u64 {
    (a % q as u128) as u64
}

/// Maps a centered signed value into `[0, q)`.
#[inline]
pub fn from_signed(v: i64, q: u64) -> u64 {
    let r = v.rem_euclid(q as i64);
    r as u64
}

/// Maps a residue into the centered interval `(-q/2, q/2]` as `i64`.
#[inline]
pub fn to_signed(a: u64, q: u64) -> i64 {
    debug_assert!(a < q);
    if a > q / 2 {
        a as i64 - q as i64
    } else {
        a as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 268_369_921; // 28-bit NTT-friendly prime: 2^28 - 2^16 + 1

    #[test]
    fn add_wraps() {
        assert_eq!(add_mod(Q - 1, 1, Q), 0);
        assert_eq!(add_mod(Q - 1, Q - 1, Q), Q - 2);
        assert_eq!(add_mod(0, 0, Q), 0);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(sub_mod(0, 1, Q), Q - 1);
        assert_eq!(sub_mod(5, 5, Q), 0);
    }

    #[test]
    fn neg_zero_is_zero() {
        assert_eq!(neg_mod(0, Q), 0);
        assert_eq!(neg_mod(1, Q), Q - 1);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let mut acc = 1u64;
        for e in 0..50u64 {
            assert_eq!(pow_mod(3, e, Q), acc);
            acc = mul_mod(acc, 3, Q);
        }
    }

    #[test]
    fn pow_edge_cases() {
        assert_eq!(pow_mod(0, 0, Q), 1);
        assert_eq!(pow_mod(0, 5, Q), 0);
        assert_eq!(pow_mod(7, 0, Q), 1);
        assert_eq!(pow_mod(1, u64::MAX, Q), 1);
    }

    #[test]
    fn inv_roundtrip() {
        for a in [1u64, 2, 3, 12345, Q - 1, Q / 2] {
            let inv = inv_mod(a, Q).expect("prime modulus: inverse exists");
            assert_eq!(mul_mod(a, inv, Q), 1, "a={a}");
        }
    }

    #[test]
    fn inv_of_zero_is_none() {
        assert_eq!(inv_mod(0, Q), None);
    }

    #[test]
    fn inv_nonexistent_composite() {
        assert_eq!(inv_mod(6, 12), None);
        assert_eq!(inv_mod(5, 12), Some(5));
    }

    #[test]
    fn signed_roundtrip() {
        for v in [-5i64, -1, 0, 1, 5, (Q / 2) as i64, -((Q / 2) as i64)] {
            assert_eq!(to_signed(from_signed(v, Q), Q), v, "v={v}");
        }
    }

    #[test]
    fn barrett_matches_mul_mod() {
        for q in [Q, 3, 17, (1u64 << 32) - 5] {
            let mu = barrett_mu(q);
            let mut x = 0x9e37_79b9u64 % q;
            let mut y = 0x85eb_ca6bu64 % q;
            for _ in 0..200 {
                assert_eq!(
                    mul_mod_barrett32(x, y, q, mu),
                    mul_mod(x, y, q),
                    "q={q} x={x} y={y}"
                );
                x = (x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1)) % q;
                y = (y.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(3)) % q;
            }
            assert_eq!(
                mul_mod_barrett32(q - 1, q - 1, q, mu),
                mul_mod(q - 1, q - 1, q)
            );
            assert_eq!(mul_mod_barrett32(0, q - 1, q, mu), 0);
            // full-width inputs reduce too (accumulated BConv sums)
            for x in [u64::MAX, u64::MAX - q, 1 << 63, q, q - 1] {
                assert_eq!(reduce_barrett(x, q, mu), x % q, "q={q} x={x}");
            }
        }
    }
}
