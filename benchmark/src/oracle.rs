//! Output checks and the tally of operations attempted and failed.
//!
//! Two kinds of oracle, neither taken from the path under test: a
//! decrypted output must sit within a stated bound of an `f64`
//! evaluation of the same program, and an output of the batched or
//! served path must equal the eager `Evaluator`'s limb for limb.

use cross_ckks::Ciphertext;

/// Operations attempted and failed. An output that fails its oracle
/// is a failed operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok` is its oracle's verdict.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another thread's tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Largest slot-wise distance between `got` and `want`; infinite when
/// the lengths differ or a value is not finite.
pub fn max_abs_err(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter().zip(want).fold(0.0, |worst, (g, w)| {
        let d = (g - w).abs();
        if d.is_finite() {
            worst.max(d)
        } else {
            f64::INFINITY
        }
    })
}

/// Level, scale bits and every limb of both components agree.
pub fn same_ciphertext(a: &Ciphertext, b: &Ciphertext) -> bool {
    a.level == b.level
        && a.scale.to_bits() == b.scale.to_bits()
        && a.c0.limbs() == b.c0.limbs()
        && a.c1.limbs() == b.c1.limbs()
}

/// `v` rotated left by `steps` slots — what `Evaluator::rotate` does
/// to a message.
pub fn rotate_left(v: &[f64], steps: usize) -> Vec<f64> {
    let n = v.len();
    (0..n).map(|i| v[(i + steps) % n]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_ckks::{CkksContext, CkksParams};

    #[test]
    fn corrupted_ciphertext_counts_as_a_failed_operation() {
        let ctx = CkksContext::new(CkksParams::toy(), 11);
        let kp = ctx.generate_keys();
        let msg: Vec<f64> = (0..ctx.slot_count())
            .map(|i| (i % 7) as f64 / 10.0)
            .collect();
        let good = ctx.encrypt(&msg, &kp.public);
        let mut bad = good.clone();
        // One flipped high bit in one residue of one limb.
        bad.c0.limbs_mut()[1][5] ^= 1 << 20;

        let mut tally = Tally::default();
        tally.record(same_ciphertext(&good, &good.clone()));
        tally.record(same_ciphertext(&good, &bad));
        let bound = 1e-3;
        tally.record(max_abs_err(&ctx.decrypt(&good, &kp.secret), &msg) <= bound);
        tally.record(max_abs_err(&ctx.decrypt(&bad, &kp.secret), &msg) <= bound);
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
    }

    #[test]
    fn distance_rejects_ragged_and_non_finite_outputs() {
        assert_eq!(max_abs_err(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_abs_err(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(max_abs_err(&[f64::NAN], &[1.0]), f64::INFINITY);
        assert_eq!(rotate_left(&[1.0, 2.0, 3.0], 1), vec![2.0, 3.0, 1.0]);
    }
}
