//! The modeled workloads, shared by the bins and the tests
//! (`tests/model_golden.rs`, `tests/speed_ratios.rs`): each §V-D program is recorded once as a
//! [`cross_sched::OpGraph`] and every consumer — scheduler, cost
//! interpreter, optimizer — works from that one graph.
//!
//! Every builder is deterministic (pure recorder programs), so the
//! modeled costs `model_golden` pins are stable across runs.

use cross_ckks::ext::sgn::{compare_chain, relu_chain, threshold_chain, SgnBackend, SgnTier};
use cross_ckks::params::CkksParams;
use cross_sched::{HeOpKind, OpGraph, Recorder, RecordingSgnBackend, TrackedVct, Vct};

/// Request `i` of a serving-shaped drain: mostly rotations (two
/// distinct steps, so same-step pairs exist at every depth from 4),
/// some mults and adds.
pub fn drain_mix(i: usize) -> HeOpKind {
    match i % 4 {
        0 | 1 => HeOpKind::Rotate {
            steps: 1 << ((i % 8) / 4),
        },
        2 => HeOpKind::Mult,
        _ => HeOpKind::Add,
    }
}

/// HELR-scale CKKS parameters (N = 2^16, L = 30, dnum = 3, 28-bit
/// moduli — the paper's logistic-regression setting mapped to double
/// rescaling).
pub fn helr_params() -> CkksParams {
    CkksParams::new(1 << 16, 30, 3, 28)
}

/// Records one HELR \[30\] gradient-descent iteration over a
/// 1024-image batch of 14×14 MNIST: 1024×196 features packed in 32768
/// slots → 8 data ciphertexts, hoisted 8-step BSGS reductions, a
/// degree-3 sigmoid, and the gradient/update step.
pub fn helr_iteration(level: usize) -> OpGraph {
    let mut r = Recorder::new();
    let xs: Vec<Vct> = (0..8).map(|_| r.input(level)).collect();

    // forward: X·w inner products — per ct one masked copy plus 8
    // hoisted rotations, each masked and accumulated.
    let mut partials = Vec::new();
    for &x in &xs {
        let mut acc = r.plain_mult(x);
        for step in 0..8 {
            let rot = r.rotate(x, 1 << step);
            let masked = r.plain_mult(rot);
            acc = r.add(acc, masked);
        }
        partials.push(acc);
    }
    // combine the partial inner products.
    let mut z = partials[0];
    for &p in &partials[1..] {
        z = r.add(z, p);
    }
    // sigmoid: degree-3 polynomial σ(z) ≈ c0 + c1·z + c3·z³ (the
    // masked linear and cubic terms; c0 folds into the plaintext).
    let sq = r.mult(z, z);
    let cube = r.mult(sq, z);
    let lin = r.plain_mult(z);
    let c3 = r.plain_mult(cube);
    let err = r.add(lin, c3);

    // gradient: Xᵀ·err — one ct-ct mult per data ciphertext, then a
    // rotate-and-add log reduction (same step across cts → fusable).
    for &x in &xs {
        let mut acc = r.mult(x, err);
        for step in 0..8 {
            let rot = r.rotate(acc, 1 << step);
            acc = r.add(acc, rot);
        }
        // update: w ← w − η·grad (mask + axpy).
        let g = r.plain_mult(acc);
        let _w = r.add(g, g);
    }
    r.finish()
}

/// MNIST-scale CKKS parameters (N = 2^13, L = 18, dnum = 3, 28-bit
/// moduli — the WISE \[67\] network's setting).
pub fn mnist_params() -> CkksParams {
    CkksParams::new(1 << 13, 18, 3, 28)
}

/// One conv layer as im2col: per input ciphertext `taps−1` distinct
/// tap rotations (plus the identity), then per output channel a
/// diagonal multiply of every tap and an accumulation chain.
fn conv(
    r: &mut Recorder,
    inputs: &[Vct],
    taps: usize,
    out_ch: usize,
    step_base: usize,
) -> Vec<Vct> {
    let mut rotated: Vec<Vct> = Vec::new();
    for &x in inputs {
        rotated.push(x);
        for t in 1..taps {
            rotated.push(r.rotate(x, step_base * t));
        }
    }
    (0..out_ch)
        .map(|_| {
            let mut acc: Option<Vct> = None;
            for &t in &rotated {
                let m = r.plain_mult(t);
                acc = Some(match acc {
                    None => m,
                    Some(a) => r.add(a, m),
                });
            }
            acc.unwrap()
        })
        .collect()
}

/// Square activation per channel ciphertext (the documented ReLU
/// substitution), after a rescale restoring the conv scale.
fn square_act(r: &mut Recorder, xs: &[Vct]) -> Vec<Vct> {
    xs.iter()
        .map(|&x| {
            let s = r.rescale(x);
            r.mult(s, s)
        })
        .collect()
}

/// 2×2 average pool: one rotate-and-add plus the 1/4 scalar mask.
fn avg_pool(r: &mut Recorder, xs: &[Vct], step: usize) -> Vec<Vct> {
    xs.iter()
        .map(|&x| {
            let rot = r.rotate(x, step);
            let sum = r.add(x, rot);
            r.plain_mult(sum)
        })
        .collect()
}

/// Fully-connected layer as a BSGS matvec: `rots` distinct rotations,
/// `diags` diagonal multiplies accumulated into one output.
fn fc(r: &mut Recorder, x: Vct, rots: usize, diags: usize) -> Vct {
    let mut rotated = vec![x];
    for s in 1..=rots {
        rotated.push(r.rotate(x, s));
    }
    let mut acc: Option<Vct> = None;
    for d in 0..diags {
        let m = r.plain_mult(rotated[d % rotated.len()]);
        acc = Some(match acc {
            None => m,
            Some(a) => r.add(a, m),
        });
    }
    r.rescale(acc.unwrap())
}

/// Records the whole WISE-style MNIST inference pass over one packed
/// batch-64 ciphertext: 2 × {Conv5x5 → square act → AvgPool} → FC →
/// act → FC.
pub fn mnist_network(level: usize) -> OpGraph {
    let mut r = Recorder::new();
    let x = r.input(level);
    // conv1: 5x5 kernel, 3→4 channels (3 packed input channels fold
    // into the tap loop: 75 taps ≈ 24×3 rotations + identity).
    let c1 = conv(&mut r, &[x], 75, 4, 1);
    let a1 = square_act(&mut r, &c1);
    let p1 = avg_pool(&mut r, &a1, 2);
    // conv2: 5x5, 4→8 channels — same tap steps across the 4 channel
    // cts, so the scheduler can merge them.
    let c2 = conv(&mut r, &p1, 25, 8, 1);
    let a2 = square_act(&mut r, &c2);
    let p2 = avg_pool(&mut r, &a2, 2);
    // flatten: fold the 8 channel cts into one.
    let mut flat = p2[0];
    for &c in &p2[1..] {
        flat = r.add(flat, c);
    }
    // FC1 (≈512 → 64): BSGS with 2·√512 ≈ 46 rotations, 64 diagonals.
    let h = fc(&mut r, flat, 46, 64);
    let h2 = {
        let s = r.rescale(h);
        r.mult(s, s)
    };
    // FC2 (64 → 10).
    let _logits = fc(&mut r, h2, 16, 10);
    r.finish()
}

/// Comparison-toolkit CKKS parameters (N = 2^16, L = 33, dnum = 3,
/// 28-bit moduli): deep enough for the rank-based top-k head, which
/// stacks two Low-tier sign evaluations plus the rank normalisation
/// (2·(12+2)+1 = 29 levels) and still ends at level ≥ 2.
pub fn sgn_workload_params() -> CkksParams {
    CkksParams::new(1 << 16, 33, 3, 28)
}

/// The flat recording scale for the sgn workload graphs.
const SGN_DELTA: f64 = (1u64 << 28) as f64;

/// Recording backend over a flat synthetic 2^28 modulus chain: every
/// rescale divides the scale by exactly 2^28, so the recorded graph
/// (and its plaintext const tables) depends only on `(level, tier)` —
/// the same determinism contract the helr/mnist builders give.
fn sgn_recorder(level: usize) -> RecordingSgnBackend {
    RecordingSgnBackend::new(&vec![1u64 << 28; level])
}

/// Records an encrypted argmax/thresholding inference head over
/// `classes` score ciphertexts: all ordered pairwise Low-tier
/// comparisons (mutually independent — prime fusion fodder for the
/// scheduler), then per class the product of its `classes − 1`
/// "beats j" indicators, yielding a one-hot argmax mask at fixed
/// depth `tier.depth() + 2 + (classes − 2)` regardless of how the
/// scores are ordered.
pub fn argmax_head(level: usize, classes: usize) -> OpGraph {
    assert!(classes >= 2, "argmax needs at least two classes");
    let mut bk = sgn_recorder(level);
    let scores: Vec<TrackedVct> = (0..classes).map(|_| bk.input(level, SGN_DELTA)).collect();
    for i in 0..classes {
        let wins: Vec<TrackedVct> = (0..classes)
            .filter(|&j| j != i)
            .map(|j| compare_chain(&mut bk, &scores[i], &scores[j], SgnTier::Low))
            .collect();
        let mut mask = wins[0];
        for w in &wins[1..] {
            mask = bk.mult(&mask, w);
        }
    }
    bk.finish().graph
}

/// Records an encrypted top-k selection head over `n` score
/// ciphertexts via rank computation: `rank_i = Σ_{j≠i} [s_i > s_j]`
/// (all pairwise compares run in parallel), normalised to `[0, 1]`,
/// then thresholded at `(n − k − ½)/(n − 1)` — the mask of the k
/// largest scores at depth `2·(tier.depth() + 2) + 1`.
pub fn topk_head(level: usize, n: usize, k: usize) -> OpGraph {
    assert!(n >= 2 && k >= 1 && k < n, "need 1 ≤ k < n and n ≥ 2");
    let mut bk = sgn_recorder(level);
    let scores: Vec<TrackedVct> = (0..n).map(|_| bk.input(level, SGN_DELTA)).collect();
    let cut = (n - k) as f64 - 0.5;
    for i in 0..n {
        let mut rank: Option<TrackedVct> = None;
        for j in 0..n {
            if j == i {
                continue;
            }
            let c = compare_chain(&mut bk, &scores[i], &scores[j], SgnTier::Low);
            rank = Some(match rank {
                None => c,
                Some(r) => bk.add(&r, &c),
            });
        }
        let scaled = bk.plain_mult(&rank.unwrap(), 1.0 / (n - 1) as f64, SGN_DELTA);
        let norm = bk.rescale(&scaled);
        threshold_chain(&mut bk, &norm, cut / (n - 1) as f64, SgnTier::Low);
    }
    bk.finish().graph
}

/// Records one ReLU-gated MLP layer over `width` neuron ciphertexts:
/// per neuron a plaintext affine step (weight multiply + rescale +
/// bias add) followed by a Mid-tier [`relu_chain`] — the genuine
/// sign-based activation, where the mnist workload substitutes
/// squaring. The `width` activations are structurally identical, so
/// the scheduler fuses them across neurons.
pub fn relu_mlp_layer(level: usize, width: usize) -> OpGraph {
    assert!(width >= 1, "layer needs at least one neuron");
    let mut bk = sgn_recorder(level);
    for i in 0..width {
        let x = bk.input(level, SGN_DELTA);
        let w = 0.9 - 0.05 * (i % 8) as f64;
        let z = bk.plain_mult(&x, w, SGN_DELTA);
        let z = bk.rescale(&z);
        let z = bk.plain_add(&z, 0.01 * (i % 4) as f64);
        relu_chain(&mut bk, &z, SgnTier::Mid);
    }
    bk.finish().graph
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_graphs_are_deterministic_and_nontrivial() {
        let h = helr_iteration(helr_params().limbs);
        assert_eq!(h, helr_iteration(helr_params().limbs));
        assert!(h.op_count() > 100);
        let m = mnist_network(mnist_params().limbs);
        assert_eq!(m, mnist_network(mnist_params().limbs));
        assert!(m.op_count() > 400);
    }

    #[test]
    fn sgn_workload_graphs_are_deterministic_and_nontrivial() {
        let l = sgn_workload_params().limbs;
        let a = argmax_head(l, 4);
        assert_eq!(a, argmax_head(l, 4));
        assert!(a.op_count() > 150, "argmax: {}", a.op_count());
        let t = topk_head(l, 6, 2);
        assert_eq!(t, topk_head(l, 6, 2));
        assert!(t.op_count() > 400, "topk: {}", t.op_count());
        let m = relu_mlp_layer(l, 8);
        assert_eq!(m, relu_mlp_layer(l, 8));
        assert!(m.op_count() > 100, "mlp: {}", m.op_count());
    }
}
