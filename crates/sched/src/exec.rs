//! Functional execution of op graphs: replay a recorded graph op by
//! op, or execute a [`Schedule`] so fused groups actually run as
//! [`BatchedCiphertext`] kernels.
//!
//! Both paths are **bit-exact** with calling the evaluator eagerly:
//! every op goes through the evaluator's `*_batch` operators, whose
//! bodies the eager methods share (a lone op runs on its operand's
//! borrowed view, exactly as an eager call does), and batch entries
//! never interact (`tests/batched_equivalence.rs`).
//! `tests/sched_model.rs` pins both.
//!
//! Inputs are borrowed while a run executes: an input node's slot
//! refers to the caller's ciphertext, and only a computed node owns
//! its value. The public entry points return owned slots, so they copy
//! the input slots out at the end; the serving worker takes the slots
//! as they stand and moves its results out.

use crate::ir::{BatchedOp, ExecOp, HeOpKind, HoistOp, NodeId, OpGraph};
use crate::sched::Schedule;
use cross_ckks::{
    BatchedCiphertext, Ciphertext, CtView, Evaluator, HoistedDecomposition, SwitchingKey,
};
use std::borrow::Cow;
use std::collections::BTreeMap;

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

/// One side of a group's operands at the group level: a lone member
/// borrowed as it is (mod-dropped only when it sits higher), a larger
/// group packed into one batch.
enum Operand<'c> {
    One(Cow<'c, Ciphertext>),
    Packed(BatchedCiphertext),
}

impl<'c> Operand<'c> {
    fn new(ev: &Evaluator, cts: &[&'c Ciphertext], level: usize) -> Self {
        match cts {
            [one] => Self::One(at_level(ev, one, level)),
            _ => {
                let aligned: Vec<_> = cts.iter().map(|c| at_level(ev, c, level)).collect();
                Self::Packed(BatchedCiphertext::from_ciphertexts(
                    aligned.iter().map(|c| &**c),
                ))
            }
        }
    }

    fn view(&self) -> CtView<'_> {
        match self {
            Self::One(ct) => CtView::from(&**ct),
            Self::Packed(batch) => CtView::from(batch),
        }
    }
}

/// Executes a group of same-kind operations at `level` as one
/// evaluator call. A lone op runs on its operand's borrowed view and
/// its result is moved out, with no pack and no unpack; a larger group
/// is packed into a batch and scattered back. Operands are mod-dropped
/// to `level` first — exactly the alignment the eager evaluator
/// performs internally, and the eager methods run the same operator
/// bodies on the same one-entry view, so group size never changes what
/// is computed — including the panic on a node declared above its
/// operands' level.
fn exec_group(
    ev: &Evaluator,
    keys: &ReplayKeys,
    op: BatchedOp,
    level: usize,
    lhs: &[&Ciphertext],
    rhs: &[&Ciphertext],
) -> Vec<Ciphertext> {
    let a = || Operand::new(ev, lhs, level);
    let b = || Operand::new(ev, rhs, level);
    let out = match op {
        BatchedOp::Add => ev.add_batch(a().view(), b().view()),
        BatchedOp::Sub => ev.sub_batch(a().view(), b().view()),
        BatchedOp::Mult => ev.mult_batch(a().view(), b().view(), keys.relin()),
        BatchedOp::PlainMultConst { cid } => {
            // One encode, broadcast across the whole group.
            let (value, pt_scale) = keys.mult_const(cid);
            let ctx = ev.context();
            let pt = ctx.encode_at(&vec![value; ctx.slot_count()], level, pt_scale);
            ev.mult_plain_batch(a().view(), &pt, pt_scale)
        }
        BatchedOp::PlainAddConst { cid } => {
            // Each member encodes its constant at its *own* (level,
            // scale) so the add is drift-free — a per-entry plaintext,
            // so there is no shared broadcast kernel to pack for.
            let value = keys.add_const(cid);
            let ctx = ev.context();
            return lhs
                .iter()
                .map(|c| {
                    let a = at_level(ev, c, level);
                    let pt = ctx.encode_at(&vec![value; ctx.slot_count()], level, a.scale);
                    ev.add_plain(&a, &pt, a.scale)
                })
                .collect();
        }
        BatchedOp::Rotate { steps } => ev.rotate_batch(a().view(), steps, keys.rotation(steps)),
        BatchedOp::Rescale => ev.rescale_batch(a().view()),
        BatchedOp::ModDrop { to_level } => ev.mod_drop_batch(a().view(), to_level),
    };
    out.into_ciphertexts()
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

    /// Executes the same-kind ops `nodes` at `level` and stores their
    /// values; cost-only kinds produce none. The one place a graph
    /// kind is converted to its executable form
    /// ([`crate::ir::KindRow::exec`]).
    fn exec(&mut self, kind: HeOpKind, level: usize, nodes: &[NodeId]) {
        let graph = self.graph;
        for &id in nodes {
            assert_eq!(graph.node(id).batch, 1, "pre-fused nodes are cost-only");
        }
        let row = kind.row();
        let out = match row.exec {
            None => return,
            // Hoist-pipeline groups run node by node off the shared
            // decomposition map — each rotation is already just the
            // cheap tail, so there is no batched variant to prefer.
            Some(ExecOp::Hoist(op)) => nodes
                .iter()
                .map(|&id| self.exec_hoist_node(op, level, id))
                .collect(),
            Some(ExecOp::Batched(op)) => {
                // operand `k` of every member (none for a unary kind's rhs)
                let side = |k: usize| -> Vec<&Ciphertext> {
                    let members = if k < row.arity { nodes } else { &[] };
                    members
                        .iter()
                        .map(|&id| self.operand(graph.node(id).inputs[k]))
                        .collect()
                };
                exec_group(self.ev, self.keys, op, level, &side(0), &side(1))
            }
        };
        for (&id, ct) in nodes.iter().zip(out) {
            self.results[id] = Some(Cow::Owned(ct));
        }
    }

    /// Executes one hoist-pipeline node against the decomposition side
    /// map. `HoistDecomp` mod-drops its operand to the node level (the
    /// same alignment every other kind gets), runs the whole digit
    /// decomposition of `c1` — INTT, per-digit base extension, NTTs of
    /// the extended limbs: what `costs::HOIST_DECOMP` charges — stores
    /// it under its node id, and passes the aligned ciphertext through
    /// as its value. `HoistedRotate` runs the Galois tail alone off the
    /// producer's stored decomposition, bit-identical to a full rotate
    /// of the pass-through value because [`Evaluator::rotate`] *is*
    /// [`Evaluator::hoist_decompose`] then [`Evaluator::hoisted_rotate`]
    /// — falling back to the eager rotate if its input was not
    /// decomposed (a hand-built graph wiring HoistedRotate to an
    /// ordinary producer) or sits at another level.
    fn exec_hoist_node(&mut self, op: HoistOp, level: usize, id: NodeId) -> Ciphertext {
        let (ev, keys) = (self.ev, self.keys);
        let input = self.graph.node(id).inputs[0];
        match op {
            HoistOp::Decomp => {
                let a = ev.mod_drop(self.operand(input), level);
                self.decomps.insert(id, ev.hoist_decompose(&a));
                a
            }
            HoistOp::Rotate { steps } => match self.decomps.get(&input) {
                Some(h) if h.level == level => ev.hoisted_rotate(h, steps, keys.rotation(steps)),
                _ => {
                    let a = at_level(ev, self.operand(input), level);
                    ev.rotate(&a, steps, keys.rotation(steps))
                }
            },
        }
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
/// [`execute_schedule`] (which fuses batch-1 nodes itself) — or when
/// a replayable op consumes a cost-only node's value.
pub fn replay(
    graph: &OpGraph,
    ev: &Evaluator,
    keys: &ReplayKeys,
    inputs: &[Ciphertext],
) -> Vec<Option<Ciphertext>> {
    let mut run = Run::new(graph, ev, keys, inputs);
    for node in graph.nodes() {
        if node.kind != HeOpKind::Input {
            run.exec(node.kind, node.level, &[node.id]);
        }
    }
    owned(run.results)
}

/// Executes a schedule: every [`crate::sched::FusedBatch`] runs as one
/// evaluator call over its member ops, in schedule order — a group of
/// one on its operand's borrowed view, a larger group packed into a
/// batch. Semantics and panics match [`replay`]; results are
/// bit-identical to it. Inputs are borrowed while the schedule runs;
/// the input nodes' slots of the returned vector are copies of them.
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
    fn group_of_one_equals_the_packed_path() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let rk = ctx.generate_rotation_key(&kp.secret, 1);
        let keys = ReplayKeys::new()
            .with_relin(&kp.relin)
            .with_rotation(1, &rk)
            .with_mult_const(0, 0.5, ctx.params().scale());
        let x = ctx.encrypt(&vec![0.2; ctx.slot_count()], &kp.public);
        let y = ctx.encrypt(&vec![-0.1; ctx.slot_count()], &kp.public);
        let top = x.level;
        let ops = [
            (BatchedOp::Add, 2),
            (BatchedOp::Sub, 2),
            (BatchedOp::Mult, 2),
            (BatchedOp::PlainMultConst { cid: 0 }, 1),
            (BatchedOp::Rotate { steps: 1 }, 1),
            (BatchedOp::Rescale, 1),
            (BatchedOp::ModDrop { to_level: 2 }, 1),
        ];
        // At the operands' level (borrowed as they are) and one below
        // (mod-dropped first).
        for level in [top, top - 1] {
            for (op, arity) in ops {
                let (rhs_one, rhs_two) = match arity {
                    2 => (vec![&y], vec![&y, &x]),
                    _ => (vec![], vec![]),
                };
                let one = exec_group(&ev, &keys, op, level, &[&x], &rhs_one);
                // The same member first in a packed group of two.
                let two = exec_group(&ev, &keys, op, level, &[&x, &y], &rhs_two);
                assert_eq!((one.len(), two.len()), (1, 2));
                assert_eq!(one[0].level, two[0].level, "{op:?} at {level}");
                assert_eq!(one[0].c0.limbs(), two[0].c0.limbs(), "{op:?} at {level}");
                assert_eq!(one[0].c1.limbs(), two[0].c1.limbs(), "{op:?} at {level}");
                assert_eq!(one[0].scale.to_bits(), two[0].scale.to_bits());
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
