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
//! A run does not repeat work that several nodes share. It keeps one
//! reuse table:
//! - the digit decomposition of a ciphertext that two or more Galois
//!   nodes (`Rotate`, `HoistedRotate`) read, keyed by the source node
//!   and the level the reader runs at: the first reader builds it with
//!   [`Evaluator::hoist_decompose`] and every reader runs
//!   [`Evaluator::hoisted_rotate`] off it;
//! - the plaintext of a constant that two or more `PlainMultConst` /
//!   `PlainAddConst` nodes encode, keyed by value, level and scale,
//!   whatever their `cid`s.
//!
//! Each entry is dropped once its last reader has run, and a run with
//! nothing to share allocates no entry. The bits are those of the
//! eager calls: [`Evaluator::rotate`] *is* `hoist_decompose` then
//! `hoisted_rotate`, and an encode is a pure function of its key. The
//! cost model still charges every decomposition and every per-`cid`
//! encode the graph holds (hoisting there is the optimizer's
//! `HoistDecomp`), so the saving is host time only.
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
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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

    /// The value a constant node encodes, if its `cid` is registered.
    fn const_value(&self, op: ExecOp) -> Option<f64> {
        match op {
            ExecOp::PlainMultConst { cid } => self.mult_consts.get(&cid).map(|c| c.0),
            ExecOp::PlainAddConst { cid } => self.add_consts.get(&cid).copied(),
            _ => None,
        }
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

/// A node's place in a run: before the node has a value, the number
/// of Galois nodes that read it; then its value, borrowed for an input
/// and owned for a computed node.
#[derive(Clone)]
pub(crate) enum Slot<'a> {
    Pending(usize),
    Input(&'a Ciphertext),
    Computed(Ciphertext),
}

impl Slot<'_> {
    /// The slot's value, an input's copied.
    pub(crate) fn into_owned(self) -> Option<Ciphertext> {
        match self {
            Slot::Pending(_) => None,
            Slot::Input(ct) => Some(ct.clone()),
            Slot::Computed(ct) => Some(ct),
        }
    }
}

/// What a run builds once for several nodes: the decompositions of
/// Galois sources, grouped by source node with one per reader level,
/// and constant plaintexts, grouped by `(value bits, level)` with one
/// per scale.
#[derive(Default)]
struct Reuse {
    decomps: Shared<NodeId, HoistedDecomposition>,
    plaintexts: Shared<(u64, usize), RnsPoly>,
}

/// Values the readers of a group share: one cell per variant, built by
/// the first reader that needs it, all dropped with the group once its
/// last reader is done. Holds only groups of two or more readers.
struct Shared<G, T> {
    groups: Mutex<BTreeMap<G, Readers<T>>>,
}

struct Readers<T> {
    /// Readers still to run.
    left: usize,
    cells: Vec<(u64, Arc<OnceLock<T>>)>,
}

impl<G, T> Default for Shared<G, T> {
    fn default() -> Self {
        Self {
            groups: Mutex::new(BTreeMap::new()),
        }
    }
}

impl<G: Ord + Copy, T> Shared<G, T> {
    /// Registers a group `readers` nodes will read; a lone reader has
    /// nothing to share.
    fn expect(&mut self, group: G, readers: usize) {
        if readers >= 2 {
            let groups = self
                .groups
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            groups.insert(
                group,
                Readers {
                    left: readers,
                    cells: Vec::new(),
                },
            );
        }
    }

    /// One reader's hold on the `variant` cell of `group`, or `None`
    /// when the group is not shared.
    fn lease(&self, group: G, variant: u64) -> Option<Lease<'_, G, T>> {
        let mut groups = self.lock();
        let readers = groups.get_mut(&group)?;
        let cell = match readers.cells.iter().find(|(v, _)| *v == variant) {
            Some((_, cell)) => Arc::clone(cell),
            None => {
                let cell = Arc::default();
                readers.cells.push((variant, Arc::clone(&cell)));
                cell
            }
        };
        Some(Lease {
            shared: self,
            group,
            cell,
        })
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<G, Readers<T>>> {
        // No build runs under the lock, and each update leaves the
        // counts valid, so a panic elsewhere cannot have left the map
        // inconsistent.
        self.groups.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader's hold on a shared cell; dropping it counts the read done.
struct Lease<'t, G: Ord + Copy, T> {
    shared: &'t Shared<G, T>,
    group: G,
    cell: Arc<OnceLock<T>>,
}

impl<G: Ord + Copy, T> Lease<'_, G, T> {
    /// The cell's value, built by `build` if no reader has yet.
    fn get_or_init(&self, build: impl FnOnce() -> T) -> &T {
        self.cell.get_or_init(build)
    }
}

impl<G: Ord + Copy, T> Drop for Lease<'_, G, T> {
    fn drop(&mut self) {
        let mut groups = self.shared.lock();
        if let Some(readers) = groups.get_mut(&self.group) {
            readers.left -= 1;
            if readers.left == 0 {
                groups.remove(&self.group);
            }
        }
    }
}

/// One execution in progress: a slot per node and the reuse table.
struct Run<'a> {
    graph: &'a OpGraph,
    ev: &'a Evaluator<'a>,
    keys: &'a ReplayKeys<'a>,
    slots: Vec<Slot<'a>>,
    reuse: Reuse,
}

impl<'a> Run<'a> {
    /// Counts what the graph's nodes share and seeds the input nodes,
    /// in construction order, from `inputs`, borrowing each.
    fn new(
        graph: &'a OpGraph,
        ev: &'a Evaluator<'a>,
        keys: &'a ReplayKeys<'a>,
        inputs: impl IntoIterator<Item = &'a Ciphertext>,
    ) -> Self {
        let mut slots = vec![Slot::Pending(0); graph.len()];
        let mut constants = BTreeMap::new();
        for node in graph.nodes() {
            let Some(op) = node.kind.row().exec else {
                continue;
            };
            if let ExecOp::Rotate { .. } | ExecOp::HoistedRotate { .. } = op {
                if let Slot::Pending(readers) = &mut slots[node.inputs[0]] {
                    *readers += 1;
                }
            }
            if let Some(value) = keys.const_value(op) {
                *constants.entry((value.to_bits(), node.level)).or_default() += 1;
            }
        }
        let mut reuse = Reuse::default();
        for (group, readers) in constants {
            reuse.plaintexts.expect(group, readers);
        }
        let mut run = Self {
            graph,
            ev,
            keys,
            slots,
            reuse,
        };
        let mut unused = inputs.into_iter();
        for node in graph.nodes() {
            if node.kind == HeOpKind::Input {
                let ct = unused.next().expect("not enough input ciphertexts");
                run.set(node.id, Slot::Input(ct));
            }
        }
        assert!(unused.next().is_none(), "unused input ciphertexts");
        run
    }

    fn operand(&self, id: NodeId) -> &Ciphertext {
        match &self.slots[id] {
            Slot::Input(ct) => ct,
            Slot::Computed(ct) => ct,
            Slot::Pending(_) => panic!("node {id} produced no value (cost-only producer?)"),
        }
    }

    /// Gives node `id` its value, and a shared decomposition group if
    /// two or more Galois nodes read it.
    fn set(&mut self, id: NodeId, value: Slot<'a>) {
        if let Slot::Pending(readers) = std::mem::replace(&mut self.slots[id], value) {
            self.reuse.decomps.expect(id, readers);
        }
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
        if let [id] = *nodes {
            // A lone member is stored as it comes, with no buffer.
            let out = self.step(op, level, id);
            return self.set(id, Slot::Computed(out));
        }
        let run = &*self;
        let mut outs: Vec<_> = nodes.iter().map(|&id| (id, None)).collect();
        par::par_for_each_mut(&mut outs, |_, (id, out)| {
            *out = Some(run.step(op, level, *id));
        });
        for (id, out) in outs {
            self.set(id, Slot::Computed(out.expect("every member ran")));
        }
    }

    /// Runs node `id` as `op` at `level`: its operands are mod-dropped
    /// to `level` first — exactly the alignment the eager evaluator
    /// performs internally, including the panic on a node declared
    /// above its operands' level — and go to the eager method.
    ///
    /// A Galois node whose source has other Galois readers runs
    /// [`Evaluator::hoisted_rotate`] off the source's shared
    /// decomposition at `level`, which the first of them builds; a
    /// constant node whose plaintext other constant nodes encode too
    /// reads it from the table. `PlainAddConst` encodes its constant
    /// at its operand's own scale, so the add is drift-free.
    /// `HoistDecomp` only aligns its operand to `level`: its
    /// `HoistedRotate`s are Galois readers of it like any other, so
    /// they share its decomposition through the table.
    fn step(&self, op: ExecOp, level: usize, id: NodeId) -> Ciphertext {
        let (ev, keys) = (self.ev, self.keys);
        let inputs = &self.graph.node(id).inputs;
        let arg = |k: usize| at_level(ev, self.operand(inputs[k]), level);
        match op {
            ExecOp::Add => ev.add(&arg(0), &arg(1)),
            ExecOp::Sub => ev.sub(&arg(0), &arg(1)),
            ExecOp::Mult => ev.mult(&arg(0), &arg(1), keys.relin()),
            ExecOp::PlainMultConst { cid } => {
                let (value, pt_scale) = keys.mult_const(cid);
                let a = arg(0);
                self.with_constant(value, level, pt_scale, |pt| ev.mult_plain(&a, pt, pt_scale))
            }
            ExecOp::PlainAddConst { cid } => {
                let a = arg(0);
                self.with_constant(keys.add_const(cid), level, a.scale, |pt| {
                    ev.add_plain(&a, pt, a.scale)
                })
            }
            ExecOp::Rotate { steps } | ExecOp::HoistedRotate { steps } => {
                let key = keys.rotation(steps);
                match self.reuse.decomps.lease(inputs[0], level as u64) {
                    Some(lease) => {
                        let h = lease.get_or_init(|| ev.hoist_decompose(&arg(0)));
                        ev.hoisted_rotate(h, steps, key)
                    }
                    None => ev.rotate(&arg(0), steps, key),
                }
            }
            ExecOp::Rescale => ev.rescale(&arg(0)),
            ExecOp::ModDrop { to_level } => ev.mod_drop(&arg(0), to_level),
            ExecOp::HoistDecomp => ev.mod_drop(self.operand(inputs[0]), level),
        }
    }

    /// `f` of the plaintext of `value` at `level` and `scale`: the
    /// shared one when other nodes encode it too, else its own.
    fn with_constant(
        &self,
        value: f64,
        level: usize,
        scale: f64,
        f: impl FnOnce(&RnsPoly) -> Ciphertext,
    ) -> Ciphertext {
        let ctx = self.ev.context();
        let encode = || ctx.encode_at(&vec![value; ctx.slot_count()], level, scale);
        let group = (value.to_bits(), level);
        match self.reuse.plaintexts.lease(group, scale.to_bits()) {
            Some(lease) => f(lease.get_or_init(encode)),
            None => f(&encode()),
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
    owned(run.slots)
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
) -> Vec<Slot<'a>> {
    let mut run = Run::new(graph, ev, keys, inputs);
    for batch in &schedule.batches {
        run.exec(batch.kind, batch.level, &batch.nodes);
    }
    run.slots
}

/// The public form of a run's slots: input nodes' copied out.
fn owned(slots: Vec<Slot<'_>>) -> Vec<Option<Ciphertext>> {
    slots.into_iter().map(Slot::into_owned).collect()
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

    /// What a run shares keeps every reader's eager bits, through
    /// `replay` and `execute_schedule`, on a free thread and on a
    /// marked one: one source rotated by three steps in three groups
    /// (one a level lower) plus a duplicate that races the first for
    /// the decomposition; a `HoistDecomp` whose `HoistedRotate`s run at
    /// its level and one below; equal constants under distinct `cid`s
    /// at two levels and two scales; and `PlainAddConst` of one value
    /// on operands of different scales.
    #[test]
    fn shared_work_keeps_every_readers_eager_bits() {
        let (ctx, kp) = setup();
        let ev = Evaluator::new(&ctx);
        let rks: Vec<_> = (1..=3)
            .map(|s| ctx.generate_rotation_key(&kp.secret, s))
            .collect();
        let delta = ctx.params().scale();
        let half = delta / 2.0;
        let mut keys = ReplayKeys::new()
            .with_add_const(0, 0.25)
            .with_add_const(1, 0.25)
            .with_add_const(2, 0.25);
        for (i, key) in rks.iter().enumerate() {
            keys = keys.with_rotation(i + 1, key);
        }
        for cid in 0..6 {
            keys = keys.with_mult_const(cid, 0.5, if cid < 4 { delta } else { half });
        }
        let msg: Vec<f64> = (0..ctx.slot_count())
            .map(|i| 0.3 - 0.0005 * i as f64)
            .collect();
        let x = ctx.encrypt(&msg, &kp.public);
        let (top, low) = (x.level, x.level - 1);
        let x_low = ev.mod_drop(&x, low);
        let rot = |ct: &Ciphertext, steps: usize| ev.rotate(ct, steps, &rks[steps - 1]);
        let pt = |value, level, scale| ctx.encode_at(&vec![value; ctx.slot_count()], level, scale);
        let mult = |ct: &Ciphertext, scale| ev.mult_plain(ct, &pt(0.5, ct.level, scale), scale);
        let add = |ct: &Ciphertext| ev.add_plain(ct, &pt(0.25, ct.level, ct.scale), ct.scale);

        let mut g = OpGraph::new();
        let xi = g.input(top);
        let mut want = Vec::new();
        let mut node = |kind, level, input, eager| {
            let id = g.add_op(kind, level, 1, &[input]);
            want.push((id, eager));
            id
        };
        node(HeOpKind::Rotate { steps: 1 }, top, xi, rot(&x, 1));
        node(HeOpKind::Rotate { steps: 2 }, top, xi, rot(&x, 2));
        node(HeOpKind::Rotate { steps: 3 }, low, xi, rot(&x_low, 3));
        node(HeOpKind::Rotate { steps: 1 }, top, xi, rot(&x, 1));
        let h = node(HeOpKind::HoistDecomp, top, xi, x.clone());
        node(HeOpKind::HoistedRotate { steps: 1 }, top, h, rot(&x, 1));
        node(HeOpKind::HoistedRotate { steps: 2 }, low, h, rot(&x_low, 2));
        let m = mult(&x, delta);
        let mi = node(HeOpKind::PlainMultConst { cid: 0 }, top, xi, m.clone());
        node(HeOpKind::PlainMultConst { cid: 1 }, top, xi, m.clone());
        node(
            HeOpKind::PlainMultConst { cid: 2 },
            low,
            xi,
            mult(&x_low, delta),
        );
        node(
            HeOpKind::PlainMultConst { cid: 3 },
            low,
            xi,
            mult(&x_low, delta),
        );
        node(HeOpKind::PlainMultConst { cid: 4 }, top, xi, mult(&x, half));
        node(
            HeOpKind::PlainMultConst { cid: 5 },
            low,
            xi,
            mult(&x_low, half),
        );
        node(HeOpKind::PlainAddConst { cid: 0 }, top, xi, add(&x));
        node(HeOpKind::PlainAddConst { cid: 1 }, top, xi, add(&x));
        node(HeOpKind::PlainAddConst { cid: 2 }, top, mi, add(&m));
        let params = *ctx.params();
        let schedule =
            crate::sched::Scheduler::new(cross_tpu::TpuGeneration::V6e, 4).schedule(&g, &params);
        let inputs = std::slice::from_ref(&x);

        let check = |thread: &str| {
            for (path, got) in [
                ("replay", replay(&g, &ev, &keys, inputs)),
                (
                    "execute_schedule",
                    execute_schedule(&g, &schedule, &ev, &keys, inputs),
                ),
            ] {
                for (id, want) in &want {
                    let got = got[*id].as_ref().expect("every node has a value");
                    let at = format!(
                        "{:?} (node {id}), {path} on a {thread} thread",
                        g.node(*id).kind
                    );
                    assert_eq!(got.level, want.level, "{at}");
                    assert_eq!(got.c0.limbs(), want.c0.limbs(), "{at}");
                    assert_eq!(got.c1.limbs(), want.c1.limbs(), "{at}");
                    assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "{at}");
                }
            }
        };
        check("free");
        std::thread::scope(|s| {
            s.spawn(|| {
                par::mark_worker();
                check("marked");
            })
            .join()
            .expect("the marked thread panicked")
        });
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
