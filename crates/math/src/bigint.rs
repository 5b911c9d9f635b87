//! A minimal unsigned big-integer, sufficient for `Q`-level arithmetic.
//!
//! CKKS ciphertext moduli reach 1904 bits (paper Tab. IV Set D), far
//! beyond native words. This module provides exactly the operations the
//! rest of the stack needs — products of word primes, Garner/CRT
//! reconstruction, centering against `Q/2`, residue extraction — with no
//! external dependency. Limbs are little-endian `u64`.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs,
/// normalized: no trailing zero limbs; zero is the empty limb vector).
///
/// # Example
/// ```
/// use cross_math::BigUint;
/// let a = BigUint::from(u64::MAX);
/// let b = a.mul_u64(2).add_u64(2); // 2^65
/// assert_eq!(b.bits(), 66);
/// assert_eq!(b.mod_u64(1_000_003), (((u64::MAX as u128 * 2) + 2) % 1_000_003) as u64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub(crate) fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// The value one.
    pub(crate) fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// Builds from little-endian limbs (normalizing trailing zeros).
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Self { limbs }
    }

    /// True iff the value is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u128;
        for i in 0..n {
            let a = *self.limbs.get(i).unwrap_or(&0) as u128;
            let b = *other.limbs.get(i).unwrap_or(&0) as u128;
            let s = a + b + carry;
            out.push(s as u64);
            carry = s >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        Self::from_limbs(out)
    }

    /// `self - other`.
    ///
    /// # Panics
    /// Panics if `other > self` (no negative values in this type).
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self >= other, "BigUint subtraction would underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i128;
            let b = *other.limbs.get(i).unwrap_or(&0) as i128;
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u64);
        }
        debug_assert_eq!(borrow, 0);
        Self::from_limbs(out)
    }

    /// `self * m` for a word multiplier.
    pub fn mul_u64(&self, m: u64) -> Self {
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let p = l as u128 * m as u128 + carry;
            out.push(p as u64);
            carry = p >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        Self::from_limbs(out)
    }

    /// `self + a` for a word addend.
    pub fn add_u64(&self, a: u64) -> Self {
        self.add(&BigUint::from(a))
    }

    /// Full product `self * other` (schoolbook).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let p = a as u128 * b as u128 + out[i + j] as u128 + carry;
                out[i + j] = p as u64;
                carry = p >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let s = out[k] as u128 + carry;
                out[k] = s as u64;
                carry = s >> 64;
                k += 1;
            }
        }
        Self::from_limbs(out)
    }

    /// Quotient and remainder of division by a word divisor.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn div_rem_u64(&self, d: u64) -> (Self, u64) {
        assert!(d != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (Self::from_limbs(out), rem as u64)
    }

    /// `self mod d` for a word modulus.
    pub fn mod_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem = 0u128;
        for &l in self.limbs.iter().rev() {
            rem = ((rem << 64) | l as u128) % d as u128;
        }
        rem as u64
    }

    /// `self >> 1` (halving, floor).
    pub(crate) fn shr1(&self) -> Self {
        let mut out = vec![0u64; self.limbs.len()];
        let mut carry = 0u64;
        for i in (0..self.limbs.len()).rev() {
            out[i] = (self.limbs[i] >> 1) | (carry << 63);
            carry = self.limbs[i] & 1;
        }
        Self::from_limbs(out)
    }

    /// Approximate conversion to `f64` (loses precision beyond 53 bits,
    /// which is exactly what CKKS decoding tolerates).
    pub(crate) fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &l in self.limbs.iter().rev() {
            acc = acc * 18_446_744_073_709_551_616.0 + l as f64;
        }
        acc
    }

    /// Product of a slice of word values, e.g. `Q = Π q_i`.
    pub fn product_of(words: &[u64]) -> Self {
        let mut acc = Self::one();
        for &w in words {
            acc = acc.mul_u64(w);
        }
        acc
    }

    /// Little-endian limbs, no trailing zero limb.
    pub(crate) fn words(&self) -> &[u64] {
        &self.limbs
    }

    /// Lower `u64` value (truncating).
    pub(crate) fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_limbs(vec![v])
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        Self::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Display for BigUint {
    /// Hexadecimal rendering (most significant limb first).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0x0");
        }
        write!(f, "0x{:x}", self.limbs.last().unwrap())?;
        for &l in self.limbs.iter().rev().skip(1) {
            write!(f, "{l:016x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::zero().to_f64(), 0.0);
    }

    #[test]
    fn add_sub_roundtrip_u128() {
        let a = BigUint::from(u128::MAX - 5);
        let b = BigUint::from(98_765_432_123_456_789u64);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.add(&b).sub(&a), b);
    }

    #[test]
    fn mul_matches_u128() {
        let cases = [(u64::MAX, u64::MAX), (12345, 67890), (1 << 63, 2)];
        for (x, y) in cases {
            let got = BigUint::from(x).mul(&BigUint::from(y));
            assert_eq!(got, BigUint::from(x as u128 * y as u128));
        }
    }

    #[test]
    fn mul_u64_chain_is_product() {
        let primes = [268_369_921u64, 268_238_849, 268_042_241, 267_648_001];
        let p = BigUint::product_of(&primes);
        let mut q = BigUint::one();
        for &x in &primes {
            q = q.mul(&BigUint::from(x));
        }
        assert_eq!(p, q);
        // residues of the product are zero mod each factor
        for &x in &primes {
            assert_eq!(p.mod_u64(x), 0);
        }
    }

    #[test]
    fn div_rem_reconstructs() {
        let a = BigUint::product_of(&[u64::MAX, u64::MAX - 1]).add_u64(42);
        let d = 1_000_000_007u64;
        let (quot, rem) = a.div_rem_u64(d);
        assert_eq!(quot.mul_u64(d).add_u64(rem), a);
        assert_eq!(a.mod_u64(d), rem);
    }

    #[test]
    fn shr1_halves() {
        let a = BigUint::from(u128::MAX);
        assert_eq!(a.shr1(), BigUint::from(u128::MAX / 2));
        let b = BigUint::from(7u64);
        assert_eq!(b.shr1(), BigUint::from(3u64));
    }

    #[test]
    fn ordering() {
        let a = BigUint::from(5u64);
        let b = BigUint::from(u128::MAX);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn to_f64_accuracy() {
        let a = BigUint::from(1u128 << 100);
        let rel = (a.to_f64() - 2f64.powi(100)).abs() / 2f64.powi(100);
        assert!(rel < 1e-12);
    }

    #[test]
    fn display_hex() {
        assert_eq!(BigUint::zero().to_string(), "0x0");
        assert_eq!(BigUint::from(0xdeadbeefu64).to_string(), "0xdeadbeef");
        let big = BigUint::from(1u128 << 64);
        assert_eq!(big.to_string(), "0x10000000000000000");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = BigUint::from(1u64).sub(&BigUint::from(2u64));
    }
}
