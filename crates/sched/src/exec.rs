//! Functional execution of op graphs: replay a recorded graph op by
//! op, or execute a [`Schedule`] group by group.
//!
//! The host runs every op on its own, through the eager [`Evaluator`]
//! method for its kind, in both paths: `replay` walks the graph in
//! construction order, `execute_schedule` walks the schedule's fused
//! groups in order. A fused group is the model's unit (one kernel
//! streaming its entries through the MXU, paper §V-A); on the host it
//! is a set of independent entries, never packed: on a free thread
//! they spread over the `cross_math::par` pool, one whole operation
//! per item, and on a marked thread they run in order. Results are
//! **bit-exact** with calling the evaluator eagerly whatever the
//! grouping. `tests/sched_model.rs` pins both paths.
//!
//! Inputs are borrowed while a run executes: an input node's slot
//! refers to the caller's ciphertext, and only a computed node owns
//! its value. The public entry points return owned slots, so they copy
//! the input slots out at the end; the serving worker takes the slots
//! as they stand and moves its results out.

use crate::ir::{ExecOp, HeOpKind, NodeId, OpGraph};
use crate::sched::Schedule;
use cross_ckks::{Ciphertext, Evaluator, HoistedDecomposition, SwitchingKey};
use cross_math::par;
use cross_poly::RnsPoly;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The switching keys replay needs — the relinearization key for
/// `Mult` and one rotation key per distinct step — plus the plaintext
/// const tables for `PlainMultConst` / `PlainAddConst` nodes.
#[derive(Default)]
pub struct ReplayKeys<'a> {
    relin: Option<&'a SwitchingKey>,
    rotation: BTreeMap<usize, &'a SwitchingKey>,
    mult_consts: BTreeMap<u32, (f64, f64)>,
    add_consts: BTreeMap<u32, f64>,
}

impl<'a> ReplayKeys<'a> {
    /// No keys (enough for Add/Rescale/ModDrop graphs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the relinearization key.
    pub fn with_relin(mut self, key: &'a SwitchingKey) -> Self {
        self.relin = Some(key);
        self
    }

    /// Adds the rotation key for `steps`.
    pub fn with_rotation(mut self, steps: usize, key: &'a SwitchingKey) -> Self {
        self.rotation.insert(steps, key);
        self
    }

    /// Registers the `(value, pt_scale)` pair a `PlainMultConst { cid }`
    /// node encodes its plaintext from at replay time.
    pub fn with_mult_const(mut self, cid: u32, value: f64, pt_scale: f64) -> Self {
        self.mult_consts.insert(cid, (value, pt_scale));
        self
    }

    /// Registers the scalar a `PlainAddConst { cid }` node encodes at
    /// its operand's scale at replay time.
    pub fn with_add_const(mut self, cid: u32, value: f64) -> Self {
        self.add_consts.insert(cid, value);
        self
    }

    fn relin(&self) -> &'a SwitchingKey {
        self.relin.expect("Mult in graph but no relin key provided")
    }

    fn rotation(&self, steps: usize) -> &'a SwitchingKey {
        self.rotation
            .get(&steps)
            .unwrap_or_else(|| panic!("no rotation key for steps {steps}"))
    }

    fn mult_const(&self, cid: u32) -> (f64, f64) {
        *self
            .mult_consts
            .get(&cid)
            .unwrap_or_else(|| panic!("no mult const registered for cid {cid}"))
    }

    fn add_const(&self, cid: u32) -> f64 {
        *self
            .add_consts
            .get(&cid)
            .unwrap_or_else(|| panic!("no add const registered for cid {cid}"))
    }
}

/// `ct` at `level`: borrowed when it is already there, mod-dropped
/// otherwise (which panics on a `level` above the ciphertext's).
fn at_level<'c>(ev: &Evaluator, ct: &'c Ciphertext, level: usize) -> Cow<'c, Ciphertext> {
    if ct.level == level {
        Cow::Borrowed(ct)
    } else {
        Cow::Owned(ev.mod_drop(ct, level))
    }
}

/// One execution in progress: a value slot per node — borrowed for an
/// input, owned for a computed node — plus the hoisted decompositions,
/// keyed by the `HoistDecomp` node that produced them.
struct Run<'a> {
    graph: &'a OpGraph,
    ev: &'a Evaluator<'a>,
    keys: &'a ReplayKeys<'a>,
    results: Vec<Option<Cow<'a, Ciphertext>>>,
    decomps: BTreeMap<NodeId, HoistedDecomposition>,
}

impl<'a> Run<'a> {
    /// Seeds the input nodes, in construction order, from `inputs`,
    /// borrowing each.
    fn new(
        graph: &'a OpGraph,
        ev: &'a Evaluator<'a>,
        keys: &'a ReplayKeys<'a>,
        inputs: impl IntoIterator<Item = &'a Ciphertext>,
    ) -> Self {
        let mut results: Vec<Option<Cow<'a, Ciphertext>>> = vec![None; graph.len()];
        let mut unused = inputs.into_iter();
        for node in graph.nodes() {
            if node.kind == HeOpKind::Input {
                let ct = unused.next().expect("not enough input ciphertexts");
                results[node.id] = Some(Cow::Borrowed(ct));
            }
        }
        assert!(unused.next().is_none(), "unused input ciphertexts");
        Self {
            graph,
            ev,
            keys,
            results,
            decomps: BTreeMap::new(),
        }
    }

    fn operand(&self, id: NodeId) -> &Ciphertext {
        self.results[id]
            .as_ref()
            .unwrap_or_else(|| panic!("node {id} produced no value (cost-only producer?)"))
    }

    /// Executes the same-kind ops `nodes` at `level`, each on its own,
    /// and stores their values; `Input` and the cost-only kinds produce
    /// none. The one place a graph kind is converted to its executable
    /// form ([`crate::ir::KindRow::exec`]).
    ///
    /// Members never read each other, so they are the items of one
    /// `par` loop: on a free thread a group of two or more spreads its
    /// members over the pool, one whole operation per item, and each
    /// member's own kernels run inline; on a marked thread the members
    /// run in order. Either way every member computes the same bits.
    fn exec(&mut self, kind: HeOpKind, level: usize, nodes: &[NodeId]) {
        let graph = self.graph;
        for &id in nodes {
            assert_eq!(graph.node(id).batch, 1, "pre-fused nodes are cost-only");
        }
        let Some(op) = kind.row().exec else { return };
        let group_pt = OnceLock::new();
        if let [id] = *nodes {
            // A lone member is stored as it comes, with no buffer.
            let out = self.step(op, level, id, &group_pt);
            return self.store(id, out);
        }
        let run = &*self;
        let mut outs: Vec<_> = nodes.iter().map(|&id| (id, None)).collect();
        par::par_for_each_mut(&mut outs, |_, (id, out)| {
            *out = Some(run.step(op, level, *id, &group_pt));
        });
        for (id, out) in outs {
            self.store(id, out.expect("every member ran"));
        }
    }

    /// Stores node `id`'s value and, for a `HoistDecomp`, its
    /// decomposition.
    fn store(&mut self, id: NodeId, (ct, decomp): (Ciphertext, Option<HoistedDecomposition>)) {
        self.decomps.extend(decomp.map(|h| (id, h)));
        self.results[id] = Some(Cow::Owned(ct));
    }

    /// Runs node `id` as `op` at `level`: its operands are mod-dropped
    /// to `level` first — exactly the alignment the eager evaluator
    /// performs internally, including the panic on a node declared
    /// above its operands' level — and go to the eager method.
    ///
    /// `PlainMultConst` encodes its plaintext into `group_pt` once for
    /// the whole group (the members share `cid` and level).
    /// `PlainAddConst` encodes its constant at its operand's own scale,
    /// so the add is drift-free. `HoistDecomp` runs the whole digit
    /// decomposition of `c1` — INTT, per-digit base extension, NTTs of
    /// the extended limbs: what `costs::HOIST_DECOMP` charges — returns
    /// it for the run to store under its node id, and passes the
    /// aligned ciphertext through as its value. `HoistedRotate` runs
    /// the Galois tail alone off the producer's stored decomposition,
    /// bit-identical to a full rotate of the pass-through value because
    /// [`Evaluator::rotate`] *is* [`Evaluator::hoist_decompose`] then
    /// [`Evaluator::hoisted_rotate`] — falling back to the eager rotate
    /// if its input was not decomposed (a hand-built graph wiring
    /// HoistedRotate to an ordinary producer) or sits at another level.
    fn step(
        &self,
        op: ExecOp,
        level: usize,
        id: NodeId,
        group_pt: &OnceLock<RnsPoly>,
    ) -> (Ciphertext, Option<HoistedDecomposition>) {
        let (ev, keys, ctx) = (self.ev, self.keys, self.ev.context());
        let inputs = &self.graph.node(id).inputs;
        let arg = |k: usize| at_level(ev, self.operand(inputs[k]), level);
        let constant =
            |value: f64, scale: f64| ctx.encode_at(&vec![value; ctx.slot_count()], level, scale);
        let ct = match op {
            ExecOp::Add => ev.add(&arg(0), &arg(1)),
            ExecOp::Sub => ev.sub(&arg(0), &arg(1)),
            ExecOp::Mult => ev.mult(&arg(0), &arg(1), keys.relin()),
            ExecOp::PlainMultConst { cid } => {
                let (value, pt_scale) = keys.mult_const(cid);
                let pt = group_pt.get_or_init(|| constant(value, pt_scale));
                ev.mult_plain(&arg(0), pt, pt_scale)
            }
            ExecOp::PlainAddConst { cid } => {
                let a = arg(0);
                ev.add_plain(&a, &constant(keys.add_const(cid), a.scale), a.scale)
            }
            ExecOp::Rotate { steps } => ev.rotate(&arg(0), steps, keys.rotation(steps)),
            ExecOp::Rescale => ev.rescale(&arg(0)),
            ExecOp::ModDrop { to_level } => ev.mod_drop(&arg(0), to_level),
            ExecOp::HoistDecomp => {
                let a = ev.mod_drop(self.operand(inputs[0]), level);
                let h = ev.hoist_decompose(&a);
                return (a, Some(h));
            }
            ExecOp::HoistedRotate { steps } => match self.decomps.get(&inputs[0]) {
                Some(h) if h.level == level => ev.hoisted_rotate(h, steps, keys.rotation(steps)),
                _ => ev.rotate(&arg(0), steps, keys.rotation(steps)),
            },
        };
        (ct, None)
    }
}

/// Replays a recorded graph op by op, in construction order. Returns
/// one slot per node (`None` for cost-only kinds). Input nodes consume
/// `inputs` in construction order.
///
/// # Panics
/// Panics if `inputs` does not match the graph's input-node count, on
/// pre-fused (`batch > 1`) nodes — those are cost-model artifacts
/// with no per-op operand wiring, executable by neither this path nor
/// [`execute_schedule`] — or when a replayable op consumes a cost-only
/// node's value.
pub fn replay(
    graph: &OpGraph,
    ev: &Evaluator,
    keys: &ReplayKeys,
    inputs: &[Ciphertext],
) -> Vec<Option<Ciphertext>> {
    let mut run = Run::new(graph, ev, keys, inputs);
    for node in graph.nodes() {
        run.exec(node.kind, node.level, &[node.id]);
    }
    owned(run.results)
}

/// Executes a schedule: the [`crate::sched::FusedBatch`]es in schedule
/// order, each group's member ops one by one. Semantics and panics
/// match [`replay`]; results are bit-identical to it. Inputs are
/// borrowed while the schedule runs; the input nodes' slots of the
/// returned vector are copies of them.
pub fn execute_schedule(
    graph: &OpGraph,
    schedule: &Schedule,
    ev: &Evaluator,
    keys: &ReplayKeys,
    inputs: &[Ciphertext],
) -> Vec<Option<Ciphertext>> {
    owned(execute_borrowed(graph, schedule, ev, keys, inputs))
}

/// [`execute_schedule`] over borrowed inputs, returning every slot as
/// it stands: an input node's still borrowed, a computed node's owned,
/// so a caller moves its results out without a copy.
pub(crate) fn execute_borrowed<'a>(
    graph: &'a OpGraph,
    schedule: &Schedule,
    ev: &'a Evaluator<'a>,
    keys: &'a ReplayKeys<'a>,
    inputs: impl IntoIterator<Item = &'a Ciphertext>,
) -> Vec<Option<Cow<'a, Ciphertext>>> {
    let mut run = Run::new(graph, ev, keys, inputs);
    for batch in &schedule.batches {
        run.exec(batch.kind, batch.level, &batch.nodes);
    }
    run.results
}

/// The public form of a run's slots: input nodes' copied out.
fn owned(results: Vec<Option<Cow<'_, Ciphertext>>>) -> Vec<Option<Ciphertext>> {
    results
        .into_iter()
        .map(|r| r.map(Cow::into_owned))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;
    use cross_ckks::{CkksContext, CkksParams};

    fn setup() -> (CkksContext, cross_ckks::KeyPair) {
        let ctx = CkksContext::new(CkksParams::toy(), 7);
        let kp = ctx.generate_keys();
        (ctx, kp)
    }

    #[test]
    fn replay_matches_eager_chain() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let rk = ctx.generate_rotation_key(&kp.secret, 1);
        let msg: Vec<f64> = (0..ctx.slot_count())
            .map(|i| 0.3 + 0.001 * i as f64)
            .collect();
        let ct = ctx.encrypt(&msg, &kp.public);

        let mut r = Recorder::new();
        let x = r.input(ct.level);
        let y = r.rotate(x, 1);
        let z = r.mult(x, y);
        let w = r.add(z, z);
        let g = r.finish();

        let keys = ReplayKeys::new()
            .with_relin(&kp.relin)
            .with_rotation(1, &rk);
        let got = replay(&g, &ev, &keys, std::slice::from_ref(&ct));

        let ey = ev.rotate(&ct, 1, &rk);
        let ez = ev.mult(&ct, &ey, &kp.relin);
        let ew = ev.add(&ez, &ez);
        let rep = got[w.node].as_ref().unwrap();
        assert_eq!(rep.c0.limbs(), ew.c0.limbs());
        assert_eq!(rep.c1.limbs(), ew.c1.limbs());
        assert_eq!(rep.scale, ew.scale);
    }

    #[test]
    fn every_group_member_gets_its_eager_bits() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let rk = ctx.generate_rotation_key(&kp.secret, 1);
        let delta = ctx.params().scale();
        let keys = ReplayKeys::new()
            .with_relin(&kp.relin)
            .with_rotation(1, &rk)
            .with_mult_const(0, 0.5, delta)
            .with_add_const(0, 0.25);
        let x = ctx.encrypt(&vec![0.2; ctx.slot_count()], &kp.public);
        let y = ctx.encrypt(&vec![-0.1; ctx.slot_count()], &kp.public);
        let top = x.level;
        let constant =
            |value, level, scale| ctx.encode_at(&vec![value; ctx.slot_count()], level, scale);
        // The direct eager call for one member on operands at `level`.
        let eager = |op: ExecOp, a: &Ciphertext, b: &Ciphertext| match op {
            ExecOp::Add => ev.add(a, b),
            ExecOp::Sub => ev.sub(a, b),
            ExecOp::Mult => ev.mult(a, b, &kp.relin),
            ExecOp::PlainMultConst { .. } => {
                ev.mult_plain(a, &constant(0.5, a.level, delta), delta)
            }
            ExecOp::PlainAddConst { .. } => {
                ev.add_plain(a, &constant(0.25, a.level, a.scale), a.scale)
            }
            ExecOp::Rotate { .. } | ExecOp::HoistedRotate { .. } => ev.rotate(a, 1, &rk),
            ExecOp::Rescale => ev.rescale(a),
            ExecOp::ModDrop { to_level } => ev.mod_drop(a, to_level),
            ExecOp::HoistDecomp => a.clone(),
        };
        let kinds = [
            HeOpKind::Add,
            HeOpKind::Sub,
            HeOpKind::Mult,
            HeOpKind::PlainMultConst { cid: 0 },
            HeOpKind::PlainAddConst { cid: 0 },
            HeOpKind::Rotate { steps: 1 },
            HeOpKind::Rescale,
            HeOpKind::ModDrop { to_level: 2 },
            HeOpKind::HoistDecomp,
            HeOpKind::HoistedRotate { steps: 1 },
        ];
        // At the operands' level (borrowed as they are) and one below
        // (mod-dropped first); a group of one, then of two whose
        // members swap their operands.
        let pairs = [(&x, &y), (&y, &x)];
        for level in [top, top - 1] {
            for kind in kinds {
                let op = kind.row().exec.expect("executable kind");
                for members in [&pairs[..1], &pairs[..]] {
                    let mut g = OpGraph::new();
                    let mut inputs = Vec::new();
                    let mut nodes = Vec::new();
                    for &(a, b) in members {
                        let ins: Vec<_> = [a, b][..kind.arity()]
                            .iter()
                            .map(|ct| {
                                inputs.push(*ct);
                                g.input(ct.level)
                            })
                            .collect();
                        // A hoisted rotation reads its producer's
                        // decomposition.
                        let ins = match op {
                            ExecOp::HoistedRotate { .. } => {
                                vec![g.add_op(HeOpKind::HoistDecomp, level, 1, &ins)]
                            }
                            _ => ins,
                        };
                        nodes.push(g.add_op(kind, level, 1, &ins));
                    }
                    let mut run = Run::new(&g, &ev, &keys, inputs);
                    if let ExecOp::HoistedRotate { .. } = op {
                        let decomps: Vec<_> = nodes.iter().map(|&n| n - 1).collect();
                        run.exec(HeOpKind::HoistDecomp, level, &decomps);
                    }
                    run.exec(kind, level, &nodes);
                    for (&(a, b), &id) in members.iter().zip(&nodes) {
                        let (a, b) = (ev.mod_drop(a, level), ev.mod_drop(b, level));
                        let want = eager(op, &a, &b);
                        let got = run.operand(id);
                        let at = format!("{kind:?} at {level}, group of {}", members.len());
                        assert_eq!(got.level, want.level, "{at}");
                        assert_eq!(got.c0.limbs(), want.c0.limbs(), "{at}");
                        assert_eq!(got.c1.limbs(), want.c1.limbs(), "{at}");
                        assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no rotation key")]
    fn missing_rotation_key_panics() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let ct = ctx.encrypt(&vec![0.1; ctx.slot_count()], &kp.public);
        let mut r = Recorder::new();
        let x = r.input(ct.level);
        r.rotate(x, 3);
        let g = r.finish();
        let _ = replay(&g, &ev, &ReplayKeys::new(), std::slice::from_ref(&ct));
    }
}
