//! Test support: a deterministic random [`OpGraph`] generator used by
//! the differential optimizer harness (`tests/opt_model.rs`) and the
//! scheduler determinism pins (`tests/sched_model.rs`).
//!
//! Hidden from docs: this is not part of the crate's public surface
//! contract, only shared plumbing for the workspace's own tests.
//!
//! Graphs are valid **by construction** — every node's level and the
//! virtual scale of every value are tracked exactly as the eager
//! [`crate::exec`] evaluator path computes them (`Add` keeps the left
//! scale, `Mult` tracks `a·b/q[aligned−1]`, `Rescale` divides by the
//! dropped modulus), so a generated graph always replays without
//! tripping the evaluator's scale-mismatch or level assertions. The
//! generator deliberately plants optimizer fodder: duplicated ops for
//! CSE, repeated rotation steps for dedup, rotation fan-outs for
//! hoisting, and `ModDrop`s (including same-level no-ops) for the
//! waterline.

use crate::exec::ReplayKeys;
use crate::ir::{HeOpKind, NodeId, OpGraph};
use crate::queue::TenantId;
use cross_ckks::SCALE_TOLERANCE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The single `PlainMultConst` scalar every generated minimax motif
/// references (`cid` 0): multiply by ½ at the graph's base scale.
pub(crate) const MOTIF_MULT_VALUE: f64 = 0.5;
/// The single `PlainAddConst` scalar every generated minimax motif
/// references (`cid` 0).
pub(crate) const MOTIF_ADD_VALUE: f64 = 0.25;

/// Registers the canonical motif const tables on a [`ReplayKeys`]
/// builder. `base_scale` must be the [`GraphGenConfig::base_scale`]
/// the graph was generated with — the motif's tracked scales assume
/// its `PlainMultConst` plaintext is encoded exactly there.
pub fn register_motif_consts(keys: ReplayKeys<'_>, base_scale: f64) -> ReplayKeys<'_> {
    keys.with_mult_const(0, MOTIF_MULT_VALUE, base_scale)
        .with_add_const(0, MOTIF_ADD_VALUE)
}

/// Shape of the generated graphs.
#[derive(Debug, Clone)]
pub struct GraphGenConfig {
    /// Level the input ciphertexts start at (the graph's top level).
    pub max_level: usize,
    /// `moduli[l-1]` is the modulus dropped by a `Rescale`/`Mult`
    /// executing at level `l`, as the `f64` the evaluator divides
    /// scales by. For replay tests pass
    /// `ctx.q_moduli().iter().map(|&q| q as f64)`; cost-only tests may
    /// pass any positive values.
    pub moduli: Vec<f64>,
    /// Scale of the input ciphertexts (`ct.scale` after encryption).
    pub base_scale: f64,
    /// How many operation draws to make (each draw emits one op, or a
    /// small fan-out burst).
    pub ops: usize,
    /// Rotation steps are drawn from `0..=max_steps` — step 0 included
    /// on purpose: it is a real key switch, not an identity.
    pub max_steps: usize,
}

impl GraphGenConfig {
    /// A config for `params`-shaped graphs with synthetic moduli (all
    /// equal to `base_scale`, the self-stabilizing choice): enough for
    /// cost-model tests that never replay.
    pub fn cost_only(max_level: usize, ops: usize) -> Self {
        let base_scale = (1u64 << 28) as f64;
        Self {
            max_level,
            moduli: vec![base_scale; max_level],
            base_scale,
            ops,
            max_steps: 3,
        }
    }
}

/// Virtual value a node produces: `(result level, exact scale)`.
type Meta = (usize, f64);

/// Scales that stay far from f64 under/overflow keep every ratio the
/// evaluator checks well-defined.
fn scale_ok(s: f64) -> bool {
    s.is_finite() && s.abs() > 1e-120 && s.abs() < 1e120
}

/// Whether the evaluator's `Add` accepts the pair, with half of
/// [`cross_ckks::scales_agree`]'s tolerance, so the margin survives any
/// tracking-vs-replay rounding (there is none — tracking mirrors the
/// arithmetic exactly — but the margin is free).
fn add_compatible(sa: f64, sb: f64) -> bool {
    (sa / sb - 1.0).abs() < SCALE_TOLERANCE / 2.0
}

/// Deterministically generates a valid random graph: same `(seed,
/// cfg)` ⇒ same graph. Inputs (1–3 of them) come first, at
/// `cfg.max_level` and `cfg.base_scale`.
pub fn random_graph(seed: u64, cfg: &GraphGenConfig) -> OpGraph {
    assert!(cfg.max_level >= 2, "need a limb to drop for Mult/Rescale");
    assert_eq!(cfg.moduli.len(), cfg.max_level, "one modulus per level");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = OpGraph::new();
    let mut meta: Vec<Meta> = Vec::new();

    for _ in 0..rng.gen_range(1usize..=3) {
        g.input(cfg.max_level);
        meta.push((cfg.max_level, cfg.base_scale));
    }

    let emit_rotate = |g: &mut OpGraph, meta: &mut Vec<Meta>, rng: &mut StdRng, a: NodeId| {
        let (la, sa) = meta[a];
        let steps = rng.gen_range(0usize..=cfg.max_steps);
        g.add_op(HeOpKind::Rotate { steps }, la, 1, &[a]);
        meta.push((la, sa));
    };

    for _ in 0..cfg.ops {
        let a = rng.gen_range(0..g.len());
        let (la, sa) = meta[a];
        match rng.gen_range(0u32..11) {
            // Rotations dominate real workloads; make them dominate
            // here too.
            0..=2 => emit_rotate(&mut g, &mut meta, &mut rng, a),
            9 => {
                // Minimax-composition motif (the `ext::sgn` chain
                // fragment): square, scale-correcting plain-mult,
                // rescale, plain-add, self-sub. Needs two droppable
                // limbs plus a live limb of plaintext budget
                // (`scale · base_scale < Π q / 2` at the plain-mult's
                // level), else degrade to a rotate.
                let sm = sa * sa / cfg.moduli[la.saturating_sub(1)];
                let sp = sm * cfg.base_scale;
                let sr = sp / cfg.moduli[la.saturating_sub(2)];
                let budget: f64 = cfg.moduli[..la.saturating_sub(1)].iter().product();
                if la >= 4 && scale_ok(sm) && scale_ok(sr) && sp < budget / 2.0 {
                    let m = g.add_op(HeOpKind::Mult, la, 1, &[a, a]);
                    let p = g.add_op(HeOpKind::PlainMultConst { cid: 0 }, la - 1, 1, &[m]);
                    let r = g.add_op(HeOpKind::Rescale, la - 1, 1, &[p]);
                    let q = g.add_op(HeOpKind::PlainAddConst { cid: 0 }, la - 2, 1, &[r]);
                    g.add_op(HeOpKind::Sub, la - 2, 1, &[q, q]);
                    meta.push((la - 1, sm));
                    meta.push((la - 1, sp));
                    meta.push((la - 2, sr));
                    meta.push((la - 2, sr));
                    meta.push((la - 2, sr));
                } else {
                    emit_rotate(&mut g, &mut meta, &mut rng, a);
                }
            }
            3 => {
                // Add: fall back to a + a when the drawn partner's
                // scale is incompatible (always compatible with
                // itself).
                let mut b = rng.gen_range(0..g.len());
                let (_, sb) = meta[b];
                if !add_compatible(sa, sb) {
                    b = a;
                }
                let l = la.min(meta[b].0);
                g.add_op(HeOpKind::Add, l, 1, &[a, b]);
                meta.push((l, sa));
            }
            4 => {
                // Mult: needs a limb to drop and a well-behaved
                // product scale; otherwise degrade to a rotate.
                let b = rng.gen_range(0..g.len());
                let (lb, sb) = meta[b];
                let l = la.min(lb);
                let s = sa * sb / cfg.moduli[l.saturating_sub(1)];
                if l >= 2 && scale_ok(s) {
                    g.add_op(HeOpKind::Mult, l, 1, &[a, b]);
                    meta.push((l - 1, s));
                } else {
                    emit_rotate(&mut g, &mut meta, &mut rng, a);
                }
            }
            5 => {
                let s = sa / cfg.moduli[la.saturating_sub(1)];
                if la >= 2 && scale_ok(s) {
                    g.add_op(HeOpKind::Rescale, la, 1, &[a]);
                    meta.push((la - 1, s));
                } else {
                    emit_rotate(&mut g, &mut meta, &mut rng, a);
                }
            }
            6 => {
                // ModDrop, `to == la` (a no-op) included on purpose —
                // waterline fodder.
                let to = rng.gen_range(1..=la);
                g.add_op(HeOpKind::ModDrop { to_level: to }, la, 1, &[a]);
                meta.push((to, sa));
            }
            7 | 8 => {
                // Exact duplicate of an earlier op — CSE/dedup fodder.
                // (Falls back to a rotate while only inputs exist.)
                let non_inputs: Vec<NodeId> = g
                    .nodes()
                    .iter()
                    .filter(|n| n.kind != HeOpKind::Input)
                    .map(|n| n.id)
                    .collect();
                if non_inputs.is_empty() {
                    emit_rotate(&mut g, &mut meta, &mut rng, a);
                } else {
                    let j = non_inputs[rng.gen_range(0..non_inputs.len())];
                    let node = g.node(j).clone();
                    g.add_op(node.kind, node.level, 1, &node.inputs);
                    meta.push(meta[j]);
                }
            }
            _ => {
                // Rotation fan-out burst — hoisting fodder.
                for _ in 0..rng.gen_range(2usize..=4) {
                    emit_rotate(&mut g, &mut meta, &mut rng, a);
                }
            }
        }
    }
    g
}

// ---------------------------------------------------------------------
// Multi-tenant serving traffic
// ---------------------------------------------------------------------

/// One step of a tenant's serving chain. Every op consumes the
/// tenant's *previous* result (`prev`, initially its base input), so
/// a chain is valid whenever levels allow — no cross-scale `Add`s can
/// arise and the whole trace replays eagerly without guards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChainOp {
    /// `Add(prev, prev)` — level- and scale-preserving.
    Add,
    /// `Mult(prev, prev)` — drops a level, squares-and-rescales the
    /// scale. The generator only emits it when the chain has a limb
    /// to drop and the tracked scale stays well-behaved.
    Mult,
    /// `Rotate(prev, steps)` — level- and scale-preserving.
    Rotate {
        /// Rotation steps (a real key switch even at 0).
        steps: usize,
    },
    /// `Rescale(prev)` — drops a level.
    Rescale,
}

/// Shape of generated serving traffic.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Level every tenant's base input starts at.
    pub max_level: usize,
    /// `moduli[l-1]` is the modulus dropped at level `l` (see
    /// [`GraphGenConfig::moduli`]).
    pub moduli: Vec<f64>,
    /// Scale of the base inputs.
    pub base_scale: f64,
    /// Rotation steps are drawn from `0..=max_steps`.
    pub max_steps: usize,
}

impl TrafficConfig {
    /// Traffic for ciphertexts of `ctx`-like shape: real moduli so
    /// traces replay bit-exactly.
    pub fn new(max_level: usize, moduli: Vec<f64>, base_scale: f64) -> Self {
        Self {
            max_level,
            moduli,
            base_scale,
            max_steps: 3,
        }
    }
}

/// Zipf-ish request shares over `tenants` summing to (at least)
/// `total`: tenant `i` (rank order as given) gets a share ∝
/// `1/(i+1)`, floored at one request — the classic skewed serving mix
/// where one hot tenant dominates a long tail.
pub fn zipf_shares(tenants: &[TenantId], total: usize) -> Vec<(TenantId, usize)> {
    assert!(!tenants.is_empty());
    let h: f64 = (1..=tenants.len()).map(|r| 1.0 / r as f64).sum();
    tenants
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let share = (total as f64 / ((i + 1) as f64 * h)).round() as usize;
            (t, share.max(1))
        })
        .collect()
}

/// Deterministically generates a mixed-tenant serving trace: same
/// `(seed, shares, cfg)` ⇒ same trace. `shares[i] = (tenant,
/// requests)`; the interleaving draws each next request from the
/// tenants with remaining quota, weighted by how much each has left —
/// a heavy tenant floods the front door, a light one trickles, and
/// every tenant's own requests appear in chain order.
///
/// Per-tenant validity is tracked exactly like [`random_graph`]: the
/// generator only emits [`ChainOp::Mult`]/[`ChainOp::Rescale`] while
/// the tenant's chain has a limb to drop and the resulting scale
/// stays far from f64 trouble, falling back to rotations otherwise.
/// Replaying a tenant's subsequence eagerly therefore never trips the
/// evaluator.
pub fn tenant_trace(
    seed: u64,
    shares: &[(TenantId, usize)],
    cfg: &TrafficConfig,
) -> Vec<(TenantId, ChainOp)> {
    assert!(cfg.max_level >= 2, "need a limb to drop for Mult/Rescale");
    assert_eq!(cfg.moduli.len(), cfg.max_level, "one modulus per level");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining: Vec<(TenantId, usize)> = shares.to_vec();
    // Per-tenant chain state: (level, scale) of `prev`.
    let mut state: std::collections::BTreeMap<TenantId, Meta> = shares
        .iter()
        .map(|&(t, _)| (t, (cfg.max_level, cfg.base_scale)))
        .collect();
    let total: usize = shares.iter().map(|&(_, n)| n).sum();
    let mut trace = Vec::with_capacity(total);
    for _ in 0..total {
        // Weighted draw over remaining quotas.
        let left: usize = remaining.iter().map(|&(_, n)| n).sum();
        let mut pick = rng.gen_range(0..left);
        let slot = remaining
            .iter_mut()
            .find(|(_, n)| {
                if pick < *n {
                    true
                } else {
                    pick -= *n;
                    false
                }
            })
            .expect("pick < sum of remaining");
        let tenant = slot.0;
        slot.1 -= 1;
        let (level, scale) = state[&tenant];
        let op = match rng.gen_range(0u32..10) {
            // Rotations dominate real workloads; here too.
            0..=4 => ChainOp::Rotate {
                steps: rng.gen_range(0..=cfg.max_steps),
            },
            5 | 6 => ChainOp::Add,
            7 | 8 => {
                let s = scale * scale / cfg.moduli[level.saturating_sub(1)];
                if level >= 2 && scale_ok(s) {
                    state.insert(tenant, (level - 1, s));
                    ChainOp::Mult
                } else {
                    ChainOp::Rotate {
                        steps: rng.gen_range(0..=cfg.max_steps),
                    }
                }
            }
            _ => {
                let s = scale / cfg.moduli[level.saturating_sub(1)];
                if level >= 2 && scale_ok(s) {
                    state.insert(tenant, (level - 1, s));
                    ChainOp::Rescale
                } else {
                    ChainOp::Rotate {
                        steps: rng.gen_range(0..=cfg.max_steps),
                    }
                }
            }
        };
        trace.push((tenant, op));
    }
    trace
}

/// The rotation steps a trace uses (generate exactly these rotation
/// keys per tenant before serving/replaying it).
pub fn trace_rotation_steps(trace: &[(TenantId, ChainOp)]) -> std::collections::BTreeSet<usize> {
    trace
        .iter()
        .filter_map(|&(_, op)| match op {
            ChainOp::Rotate { steps } => Some(steps),
            _ => None,
        })
        .collect()
}

/// The set of rotation steps a graph uses (callers generate exactly
/// these rotation keys before replaying).
pub fn rotation_steps(graph: &OpGraph) -> std::collections::BTreeSet<usize> {
    graph
        .nodes()
        .iter()
        .filter_map(|n| match n.kind {
            HeOpKind::Rotate { steps } | HeOpKind::HoistedRotate { steps } => Some(steps),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        let cfg = GraphGenConfig::cost_only(6, 40);
        let a = random_graph(42, &cfg);
        let b = random_graph(42, &cfg);
        assert_eq!(a, b, "same seed must reproduce the same graph");
        assert_ne!(a, random_graph(43, &cfg), "different seeds must differ");
        // add_op's own assertions already vetted levels/arities during
        // construction; spot-check the advertised shape.
        assert!(a.len() > 40, "each draw emits at least one op");
        assert!(a.nodes().iter().all(|n| n.batch == 1));
    }

    #[test]
    fn traces_are_deterministic_and_share_shaped() {
        let cfg = TrafficConfig::new(8, vec![(1u64 << 28) as f64; 8], (1u64 << 28) as f64);
        let shares = zipf_shares(&[1, 2, 3, 4], 100);
        // Rank 1 dominates, every tenant gets service.
        assert!(shares[0].1 > shares[3].1 * 3);
        assert!(shares.iter().all(|&(_, n)| n >= 1));
        let a = tenant_trace(9, &shares, &cfg);
        assert_eq!(a, tenant_trace(9, &shares, &cfg), "same seed, same trace");
        assert_ne!(a, tenant_trace(10, &shares, &cfg));
        for &(t, want) in &shares {
            let got = a.iter().filter(|&&(x, _)| x == t).count();
            assert_eq!(got, want, "tenant {t} appears exactly its share");
        }
        // Chains never over-consume levels: at most max_level - 1
        // level-dropping ops per tenant.
        for &(t, _) in &shares {
            let drops = a
                .iter()
                .filter(|&&(x, op)| x == t && matches!(op, ChainOp::Mult | ChainOp::Rescale))
                .count();
            assert!(drops < cfg.max_level);
        }
    }

    #[test]
    fn generator_plants_optimizer_fodder() {
        let cfg = GraphGenConfig::cost_only(8, 200);
        let g = random_graph(7, &cfg);
        let rotations = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, HeOpKind::Rotate { .. }))
            .count();
        let moddrops = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, HeOpKind::ModDrop { .. }))
            .count();
        assert!(rotations > 20, "rotation-heavy by design");
        assert!(moddrops > 0, "waterline fodder present");
        assert!(!rotation_steps(&g).is_empty());
    }

    #[test]
    fn generator_emits_minimax_motifs() {
        let cfg = GraphGenConfig::cost_only(12, 300);
        let g = random_graph(11, &cfg);
        let count =
            |pred: fn(&HeOpKind) -> bool| g.nodes().iter().filter(|n| pred(&n.kind)).count();
        assert!(
            count(|k| matches!(k, HeOpKind::PlainMultConst { .. })) > 0,
            "motif plain-mults present"
        );
        assert!(
            count(|k| matches!(k, HeOpKind::PlainAddConst { .. })) > 0,
            "motif plain-adds present"
        );
        assert!(
            count(|k| matches!(k, HeOpKind::Sub)) > 0,
            "motif subs present"
        );
    }
}
