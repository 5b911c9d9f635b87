//! Seeded input generators. The benchmark owns them so that no edit
//! outside `benchmark/` can move the load: the same `--seed` yields
//! the same messages and the same request order on every commit.

/// SplitMix64 (Steele, Lea, Flood 2014): a 64-bit state, one
/// multiply-xorshift round per draw. Chosen because it is ten lines
/// and fully specified, not because the load needs its quality.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `stream` of `seed`; different streams of one
    /// seed are independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (the modulo bias of `n ≪ 2^64` is far below
    /// anything a load mix can show).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Stream ids, so each consumer of one seed draws its own sequence.
pub mod stream {
    /// CKKS context randomness (keys, encryption noise).
    pub const CONTEXT: u64 = 1;
    /// Input messages; add the input's index.
    pub const MESSAGE: u64 = 100;
    /// Plaintext masks and weights; add the mask's index.
    pub const MASK: u64 = 200;
    /// Interactive tenants' request order; add the tenant id.
    pub const REQUESTS: u64 = 300;
}

/// The seed a workload's `CkksContext` is built with.
pub fn context_seed(seed: u64) -> u64 {
    SplitMix64::new(seed, stream::CONTEXT).next_u64()
}

/// `slots` values uniform in `[lo, hi)`.
pub fn message(seed: u64, stream: u64, slots: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut g = SplitMix64::new(seed, stream);
    (0..slots).map(|_| lo + (hi - lo) * g.next_f64()).collect()
}

/// `slots` values with magnitude uniform in `[lo, hi)` and a random
/// sign — inputs of a sign chain, which is only precise away from 0.
pub fn signed_message(seed: u64, stream: u64, slots: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut g = SplitMix64::new(seed, stream);
    (0..slots)
        .map(|_| {
            let m = lo + (hi - lo) * g.next_f64();
            if g.next_u64() & 1 == 0 {
                m
            } else {
                -m
            }
        })
        .collect()
}

/// One request of the serving mix, always over the tenant's base
/// input so every request is valid whatever the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServeOp {
    /// `rotate(x, steps)`.
    Rotate(usize),
    /// `mult(x, x)`.
    Mult,
    /// `add(x, x)`.
    Add,
}

/// Rotation steps the interactive tenants hold keys for.
pub const INTERACTIVE_STEPS: [usize; 2] = [1, 2];

/// The distinct ops a tenant can issue, in a fixed order (the eager
/// reference results are indexed by it).
pub fn serve_op_kinds() -> Vec<ServeOp> {
    let mut kinds: Vec<ServeOp> = INTERACTIVE_STEPS
        .iter()
        .map(|&s| ServeOp::Rotate(s))
        .collect();
    kinds.push(ServeOp::Mult);
    kinds.push(ServeOp::Add);
    kinds
}

/// How often each of [`serve_op_kinds`] occurs in six requests:
/// rotate-heavy, like the HELR inner loop.
const MIX_PER_SIX: [usize; 4] = [2, 1, 2, 1];

/// A cyclic request order for one interactive tenant: `len` ops (a
/// multiple of six) holding [`serve_op_kinds`] in the proportions
/// 2:1:2:1 exactly, shuffled by the seed. Every seed asks for the same
/// work; only the order differs. Clients walk it round and round.
pub fn interactive_ops(seed: u64, tenant: u64, len: usize) -> Vec<ServeOp> {
    assert!(
        len > 0 && len.is_multiple_of(6),
        "the mix is defined per six requests"
    );
    let mut ops: Vec<ServeOp> = serve_op_kinds()
        .into_iter()
        .zip(MIX_PER_SIX)
        .flat_map(|(op, per_six)| std::iter::repeat_n(op, per_six * len / 6))
        .collect();
    // Fisher–Yates.
    let mut g = SplitMix64::new(seed, stream::REQUESTS + tenant);
    for i in (1..ops.len()).rev() {
        ops.swap(i, g.below(i as u64 + 1) as usize);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            message(7, stream::MESSAGE, 64, -1.0, 1.0),
            message(7, stream::MESSAGE, 64, -1.0, 1.0)
        );
        assert_eq!(
            signed_message(7, stream::MESSAGE + 1, 64, 0.1, 0.9),
            signed_message(7, stream::MESSAGE + 1, 64, 0.1, 0.9)
        );
        assert_eq!(interactive_ops(7, 2, 240), interactive_ops(7, 2, 240));
        assert_eq!(context_seed(7), context_seed(7));
    }

    #[test]
    fn different_seed_or_stream_different_inputs() {
        let a = message(7, stream::MESSAGE, 64, -1.0, 1.0);
        assert_ne!(a, message(8, stream::MESSAGE, 64, -1.0, 1.0));
        assert_ne!(a, message(7, stream::MESSAGE + 1, 64, -1.0, 1.0));
        assert_ne!(interactive_ops(7, 2, 240), interactive_ops(8, 2, 240));
        assert_ne!(interactive_ops(7, 2, 240), interactive_ops(7, 3, 240));
        assert_ne!(context_seed(7), context_seed(8));
    }

    #[test]
    fn values_stay_in_range_and_mix_has_every_op() {
        let m = message(1, stream::MESSAGE, 4096, -0.5, 0.5);
        assert!(m.iter().all(|v| (-0.5..0.5).contains(v)));
        let s = signed_message(1, stream::MESSAGE, 4096, 0.1, 0.9);
        assert!(s.iter().all(|v| (0.1..0.9).contains(&v.abs())));
        assert!(s.iter().any(|&v| v < 0.0) && s.iter().any(|&v| v > 0.0));
        // Every seed asks for the same work: the mix is exact.
        for seed in [1, 2] {
            let ops = interactive_ops(seed, 2, 240);
            for (kind, per_six) in serve_op_kinds().into_iter().zip(MIX_PER_SIX) {
                let n = ops.iter().filter(|&&op| op == kind).count();
                assert_eq!(n, per_six * 40, "{kind:?} under seed {seed}");
            }
        }
    }
}
