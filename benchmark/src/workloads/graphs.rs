//! The recorded programs `model_sweep` compiles. They restate the
//! §V-D workloads of the table bins (`crates/bench`) so that the
//! benchmark's load cannot be moved by editing that crate; the shapes
//! — and so every modeled figure — are the same as the bins print.

use cross_ckks::ext::sgn::{compare_chain, threshold_chain, SgnBackend, SgnTier};
use cross_ckks::CkksParams;
use cross_sched::{OpGraph, Recorder, RecordingSgnBackend, TrackedVct, Vct};

/// A recorded program with the parameters it is costed at.
pub struct Program {
    pub name: &'static str,
    pub params: CkksParams,
    pub graph: OpGraph,
}

/// The four programs of a round.
pub fn programs() -> Vec<Program> {
    let helr = CkksParams::new(1 << 16, 30, 3, 28);
    let mnist = CkksParams::new(1 << 13, 18, 3, 28);
    let heads = CkksParams::new(1 << 16, 33, 3, 28);
    vec![
        Program {
            name: "helr",
            params: helr,
            graph: helr_iteration(helr.limbs),
        },
        Program {
            name: "mnist",
            params: mnist,
            graph: mnist_network(mnist.limbs),
        },
        Program {
            name: "argmax4",
            params: heads,
            graph: argmax_head(heads.limbs, 4),
        },
        Program {
            name: "topk6_2",
            params: heads,
            graph: topk_head(heads.limbs, 6, 2),
        },
    ]
}

/// One HELR gradient-descent step over 8 data ciphertexts: masked
/// 8-rotation inner products, a degree-3 sigmoid, then per ciphertext
/// a gradient product, a rotate-and-add reduction and the update.
fn helr_iteration(level: usize) -> OpGraph {
    let mut r = Recorder::new();
    let data: Vec<Vct> = (0..8).map(|_| r.input(level)).collect();

    let partials: Vec<Vct> = data
        .iter()
        .map(|&x| {
            let mut acc = r.plain_mult(x);
            for step in 0..8 {
                let rot = r.rotate(x, 1 << step);
                let masked = r.plain_mult(rot);
                acc = r.add(acc, masked);
            }
            acc
        })
        .collect();
    let z = partials[1..].iter().fold(partials[0], |z, &p| r.add(z, p));

    let sq = r.mult(z, z);
    let cube = r.mult(sq, z);
    let lin = r.plain_mult(z);
    let cub = r.plain_mult(cube);
    let err = r.add(lin, cub);

    for &x in &data {
        let mut acc = r.mult(x, err);
        for step in 0..8 {
            let rot = r.rotate(acc, 1 << step);
            acc = r.add(acc, rot);
        }
        let grad = r.plain_mult(acc);
        r.add(grad, grad);
    }
    r.finish()
}

/// Sum of `terms` masked by plaintext diagonals.
fn masked_sum(r: &mut Recorder, terms: impl IntoIterator<Item = Vct>) -> Vct {
    let mut acc: Option<Vct> = None;
    for t in terms {
        let m = r.plain_mult(t);
        acc = Some(match acc {
            None => m,
            Some(a) => r.add(a, m),
        });
    }
    acc.expect("at least one term")
}

/// A convolution as im2col: every input rotated to each tap, then per
/// output channel one masked sum over all taps.
fn conv(r: &mut Recorder, inputs: &[Vct], taps: usize, out_channels: usize) -> Vec<Vct> {
    let mut tapped = Vec::with_capacity(inputs.len() * taps);
    for &x in inputs {
        tapped.push(x);
        tapped.extend((1..taps).map(|t| r.rotate(x, t)));
    }
    (0..out_channels)
        .map(|_| masked_sum(r, tapped.iter().copied()))
        .collect()
}

/// Rescale then square: the activation standing in for ReLU.
fn square(r: &mut Recorder, x: Vct) -> Vct {
    let s = r.rescale(x);
    r.mult(s, s)
}

/// 2×2 average pool: rotate, add, scale.
fn avg_pool(r: &mut Recorder, x: Vct) -> Vct {
    let rot = r.rotate(x, 2);
    let sum = r.add(x, rot);
    r.plain_mult(sum)
}

/// A fully connected layer as a baby-step matvec: `rotations` distinct
/// rotations, `diagonals` masked terms cycling over them.
fn dense(r: &mut Recorder, x: Vct, rotations: usize, diagonals: usize) -> Vct {
    let mut rotated = vec![x];
    rotated.extend((1..=rotations).map(|s| r.rotate(x, s)));
    let terms: Vec<Vct> = (0..diagonals).map(|d| rotated[d % rotated.len()]).collect();
    let sum = masked_sum(r, terms);
    r.rescale(sum)
}

/// The WISE-style MNIST network on one packed ciphertext:
/// 2 × {conv 5×5 → square → pool} → dense → square → dense.
fn mnist_network(level: usize) -> OpGraph {
    let mut r = Recorder::new();
    let image = r.input(level);
    let mut maps = vec![image];
    for (taps, channels) in [(75, 4), (25, 8)] {
        let convolved = conv(&mut r, &maps, taps, channels);
        let squared: Vec<Vct> = convolved.into_iter().map(|c| square(&mut r, c)).collect();
        maps = squared.into_iter().map(|a| avg_pool(&mut r, a)).collect();
    }
    let flat = maps[1..].iter().fold(maps[0], |f, &c| r.add(f, c));
    let hidden = dense(&mut r, flat, 46, 64);
    let hidden = square(&mut r, hidden);
    dense(&mut r, hidden, 16, 10);
    r.finish()
}

/// Every rescale of the head graphs divides by exactly 2^28, so the
/// graph depends on `(level, tier)` alone.
const HEAD_SCALE: f64 = (1u64 << 28) as f64;

fn head_recorder(level: usize, inputs: usize) -> (RecordingSgnBackend, Vec<TrackedVct>) {
    let mut bk = RecordingSgnBackend::new(&vec![1u64 << 28; level]);
    let scores = (0..inputs).map(|_| bk.input(level, HEAD_SCALE)).collect();
    (bk, scores)
}

/// One-hot argmax over `classes` scores: all ordered pairwise
/// comparisons, then per class the product of its wins.
fn argmax_head(level: usize, classes: usize) -> OpGraph {
    let (mut bk, scores) = head_recorder(level, classes);
    for i in 0..classes {
        let wins: Vec<TrackedVct> = (0..classes)
            .filter(|&j| j != i)
            .map(|j| compare_chain(&mut bk, &scores[i], &scores[j], SgnTier::Low))
            .collect();
        wins[1..].iter().fold(wins[0], |mask, w| bk.mult(&mask, w));
    }
    bk.finish().graph
}

/// Top-`k` mask over `n` scores by rank: sum of pairwise wins,
/// normalised, thresholded.
fn topk_head(level: usize, n: usize, k: usize) -> OpGraph {
    let (mut bk, scores) = head_recorder(level, n);
    let cut = ((n - k) as f64 - 0.5) / (n - 1) as f64;
    for i in 0..n {
        let mut rank: Option<TrackedVct> = None;
        for j in (0..n).filter(|&j| j != i) {
            let win = compare_chain(&mut bk, &scores[i], &scores[j], SgnTier::Low);
            rank = Some(match rank {
                None => win,
                Some(r) => bk.add(&r, &win),
            });
        }
        let rank = rank.expect("n >= 2");
        let scaled = bk.plain_mult(&rank, 1.0 / (n - 1) as f64, HEAD_SCALE);
        let norm = bk.rescale(&scaled);
        threshold_chain(&mut bk, &norm, cut, SgnTier::Low);
    }
    bk.finish().graph
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Op counts the table bins print for the same programs
    /// (`helr`, `mnist`, `sgn_ops`): the benchmark starts from the
    /// repo's shapes, not a fork of them.
    #[test]
    fn programs_have_the_bins_shapes_and_are_deterministic() {
        let ps = programs();
        let ops: Vec<(&str, usize)> = ps.iter().map(|p| (p.name, p.graph.op_count())).collect();
        assert_eq!(ops[0], ("helr", 364));
        assert_eq!(ops[1], ("mnist", 2637));
        assert_eq!(ops[2].0, "argmax4");
        assert_eq!(ops[3].0, "topk6_2");
        for (a, b) in ps.iter().zip(programs()) {
            assert_eq!(a.graph, b.graph, "{} is not deterministic", a.name);
        }
    }
}
