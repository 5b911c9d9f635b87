//! CKKS canonical-embedding encoder (special FFT over `C^{N/2}`).
//!
//! Messages are complex vectors of length `N/2`; encoding evaluates the
//! inverse canonical embedding (the HEAAN special IFFT over the `5^i`
//! rotation group), scales by `Δ` and rounds to integer coefficients.

use std::f64::consts::PI;
use std::ops::{Add, Mul, Neg, Sub};

/// A minimal complex number (no external dependency).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Builds `re + im·i`.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Scales by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, o: Complex64) -> Complex64 {
        Complex64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

/// The canonical-embedding codec for degree `N`.
#[derive(Debug, Clone)]
pub struct CkksEncoder {
    n: usize,
    /// `M = 2N`-th roots of unity table.
    ksi_pows: Vec<Complex64>,
    /// `5^i mod 2N` rotation group (length `N/2`).
    rot_group: Vec<usize>,
}

impl CkksEncoder {
    /// Builds the codec for ring degree `n`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 4);
        let m = 2 * n;
        let ksi_pows = (0..=m)
            .map(|j| Complex64::cis(2.0 * PI * j as f64 / m as f64))
            .collect();
        let mut rot_group = Vec::with_capacity(n / 2);
        let mut five_pow = 1usize;
        for _ in 0..n / 2 {
            rot_group.push(five_pow);
            five_pow = five_pow * 5 % m;
        }
        Self {
            n,
            ksi_pows,
            rot_group,
        }
    }

    /// Slot count `N/2`.
    pub(crate) fn slot_count(&self) -> usize {
        self.n / 2
    }

    fn bit_reverse(vals: &mut [Complex64]) {
        cross_math::bitrev::bit_reverse_in_place(vals);
    }

    /// Forward special FFT (decode direction): coefficients → slots.
    pub(crate) fn special_fft(&self, vals: &mut [Complex64]) {
        let size = vals.len();
        assert!(size.is_power_of_two());
        let m = 2 * self.n;
        Self::bit_reverse(vals);
        let mut len = 2;
        while len <= size {
            let lenh = len >> 1;
            let lenq = len << 2;
            let gap = m / lenq;
            let mut i = 0;
            while i < size {
                for j in 0..lenh {
                    let idx = (self.rot_group[j] % lenq) * gap;
                    let u = vals[i + j];
                    let v = vals[i + j + lenh] * self.ksi_pows[idx];
                    vals[i + j] = u + v;
                    vals[i + j + lenh] = u - v;
                }
                i += len;
            }
            len <<= 1;
        }
    }

    /// Inverse special FFT (encode direction): slots → coefficients.
    pub(crate) fn special_ifft(&self, vals: &mut [Complex64]) {
        let size = vals.len();
        assert!(size.is_power_of_two());
        let m = 2 * self.n;
        let mut len = size;
        while len >= 2 {
            let lenh = len >> 1;
            let lenq = len << 2;
            let gap = m / lenq;
            let mut i = 0;
            while i < size {
                for j in 0..lenh {
                    let idx = (lenq - (self.rot_group[j] % lenq)) * gap;
                    let u = vals[i + j] + vals[i + j + lenh];
                    let v = (vals[i + j] - vals[i + j + lenh]) * self.ksi_pows[idx];
                    vals[i + j] = u;
                    vals[i + j + lenh] = v;
                }
                i += len;
            }
            len >>= 1;
        }
        Self::bit_reverse(vals);
        let inv = 1.0 / size as f64;
        for v in vals.iter_mut() {
            *v = v.scale(inv);
        }
    }

    /// Encodes complex slots into scaled signed integer coefficients
    /// (length `N`): `coeff[j] = round(Δ·Re(w_j))`,
    /// `coeff[j+N/2] = round(Δ·Im(w_j))`.
    ///
    /// # Panics
    /// Panics if more than `N/2` slots are supplied.
    pub fn encode(&self, slots: &[Complex64], scale: f64) -> Vec<i64> {
        let sc = self.slot_count();
        assert!(slots.len() <= sc, "too many slots");
        let mut vals = vec![Complex64::default(); sc];
        vals[..slots.len()].copy_from_slice(slots);
        self.special_ifft(&mut vals);
        let mut coeffs = vec![0i64; self.n];
        for j in 0..sc {
            coeffs[j] = (vals[j].re * scale).round() as i64;
            coeffs[j + sc] = (vals[j].im * scale).round() as i64;
        }
        coeffs
    }

    /// Encodes a real vector.
    pub(crate) fn encode_real(&self, values: &[f64], scale: f64) -> Vec<i64> {
        let slots: Vec<Complex64> = values.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        self.encode(&slots, scale)
    }

    /// Decodes signed coefficients back to complex slots.
    pub fn decode(&self, coeffs: &[f64], scale: f64) -> Vec<Complex64> {
        assert_eq!(coeffs.len(), self.n);
        let sc = self.slot_count();
        let mut vals: Vec<Complex64> = (0..sc)
            .map(|j| Complex64::new(coeffs[j] / scale, coeffs[j + sc] / scale))
            .collect();
        self.special_fft(&mut vals);
        vals
    }

    /// Decodes to the real parts only.
    pub(crate) fn decode_real(&self, coeffs: &[f64], scale: f64) -> Vec<f64> {
        self.decode(coeffs, scale).iter().map(|c| c.re).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_roundtrip() {
        let enc = CkksEncoder::new(64);
        let mut vals: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new(i as f64 * 0.25, -(i as f64) * 0.5))
            .collect();
        let orig = vals.clone();
        enc.special_ifft(&mut vals);
        enc.special_fft(&mut vals);
        for (a, b) in vals.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let enc = CkksEncoder::new(1 << 8);
        let scale = 2f64.powi(28);
        let msg: Vec<f64> = (0..enc.slot_count()).map(|i| (i as f64).sin()).collect();
        let coeffs = enc.encode_real(&msg, scale);
        let coeffs_f: Vec<f64> = coeffs.iter().map(|&c| c as f64).collect();
        let back = enc.decode_real(&coeffs_f, scale);
        for (a, b) in msg.iter().zip(&back) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn encoding_is_additive() {
        let enc = CkksEncoder::new(1 << 6);
        let scale = 2f64.powi(20);
        let a: Vec<f64> = (0..enc.slot_count()).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = (0..enc.slot_count())
            .map(|i| 3.0 - i as f64 * 0.05)
            .collect();
        let ca = enc.encode_real(&a, scale);
        let cb = enc.encode_real(&b, scale);
        let sum: Vec<f64> = ca.iter().zip(&cb).map(|(&x, &y)| (x + y) as f64).collect();
        let back = enc.decode_real(&sum, scale);
        for i in 0..a.len() {
            assert!((back[i] - (a[i] + b[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn slot_products_are_negacyclic_poly_products() {
        // The canonical embedding is a ring homomorphism: slot-wise
        // products correspond to negacyclic polynomial products.
        let n = 1 << 5;
        let enc = CkksEncoder::new(n);
        let scale = 2f64.powi(24);
        let a: Vec<f64> = (0..enc.slot_count())
            .map(|i| 0.3 + i as f64 * 0.01)
            .collect();
        let b: Vec<f64> = (0..enc.slot_count())
            .map(|i| 1.5 - i as f64 * 0.02)
            .collect();
        let ca = enc.encode_real(&a, scale);
        let cb = enc.encode_real(&b, scale);
        // negacyclic product over the integers
        let mut prod = vec![0f64; n];
        for i in 0..n {
            for j in 0..n {
                let p = ca[i] as f64 * cb[j] as f64;
                if i + j < n {
                    prod[i + j] += p;
                } else {
                    prod[i + j - n] -= p;
                }
            }
        }
        let back = enc.decode_real(&prod, scale * scale);
        for i in 0..a.len() {
            assert!(
                (back[i] - a[i] * b[i]).abs() < 1e-4,
                "slot {i}: {} vs {}",
                back[i],
                a[i] * b[i]
            );
        }
    }

    #[test]
    fn conjugate_symmetry_gives_real_coeffs() {
        // Real inputs produce real (integer) coefficients by
        // construction; verify imaginary leakage is just rounding.
        let enc = CkksEncoder::new(1 << 6);
        let msg: Vec<f64> = (0..enc.slot_count()).map(|i| (i % 7) as f64).collect();
        let coeffs = enc.encode_real(&msg, 2f64.powi(30));
        // decode and check imaginary parts of slots are ~0
        let cf: Vec<f64> = coeffs.iter().map(|&c| c as f64).collect();
        let slots = enc.decode(&cf, 2f64.powi(30));
        for s in slots {
            assert!(s.im.abs() < 1e-6);
        }
    }
}
