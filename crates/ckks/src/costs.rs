//! Shape-level TPU cost charging for HE operators (paper Tab. VIII,
//! Fig. 12 methodology).
//!
//! These functions reproduce the paper's measurement setup without
//! materializing Set-D-sized functional data: every kernel charges the
//! exact op shapes the lowered implementation executes (BAT matmuls,
//! VecModOps, type conversions, relayouts, permutations, HBM parameter
//! traffic), and the roofline in [`TpuSim`] turns them into latency.
//!
//! Each HE operator is described once, as an [`OpSpec`]: a short list
//! of named *phases* (tensor, digit decomposition, key inner product,
//! mod-down, rescale, automorphism), each a kernel-count formula over
//! one `(params, level)` shape. `OpSpec::counts` is the sum of the
//! phases and [`OpSpec::bundle`] the one place counts are paired with
//! switching-key traffic; the `cross_sched` IR, the bootstrapping
//! estimator and the backbone tables all charge those bundles.
//!
//! What is pinned: the modeled seconds, bit for bit, by
//! `tests/model_golden.rs`; the path identities (1-core pod ≡ lone
//! core, `cost_graph` ≡ [`charge_op_pod`]) by `tests/pod_model.rs` and
//! `tests/sched_model.rs`; the simulator's conservation laws by
//! `crates/tpu/tests/accounting.rs`. What is **not** yet pinned is
//! agreement between these counts and the kernels the functional
//! evaluator executes at small degrees — that comparison is ROADMAP
//! item (1c), which also records the two deviations already known.

use crate::params::CkksParams;
use cross_core::modred::ModRed;
use cross_core::plan;
use cross_core::shard::{ShardPlan, ShardStrategy};
use cross_tpu::{Category, KernelReport, PodKernelReport, PodSim, TpuGeneration, TpuSim};

/// Chunks per 28-bit word on an 8-bit MXU.
const K: usize = 4;

/// How NTT/INTT limb-transforms inside an HE operator are lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The XLA-unfused lowering the paper profiles: step-3 matmuls stay
    /// one call per polynomial (tile padding not amortized) and every
    /// intermediate round-trips HBM (§V-E). The historical default.
    #[default]
    Unfused,
    /// The fused batch-major lowering of
    /// [`cross_core::Ntt3Plan::charge_forward_batch`]: step 3 runs as
    /// one `(R·B × KC) @ (KC × KC)` matmul and intermediates stay in
    /// VMEM, so only the operator's input/output streams HBM.
    FusedBatch,
}

/// Bytes of XLA-materialized intermediates per transformed polynomial:
/// post-step-1 u32, two byte-chunk forms, post-step-2 u32 and the
/// output all round-trip HBM (read+write) between unfused ops
/// (paper §V-E; also visible as Fig. 12's Copy+Reshape share).
fn ntt_materialize_bytes(n: usize) -> f64 {
    (2 * (4 * n * 4 + 2 * n * K)) as f64
}

/// Steps 1–2 plus the step-3 chunk decomposition — charged
/// identically by the unfused and fused lowerings (step 1 already
/// streams the batch along its column dimension either way).
fn charge_ntt_through_step3_chunks(
    sim: &mut TpuSim,
    r: usize,
    c: usize,
    batch: usize,
    cat: Category,
) {
    let n = r * c;
    // step 1: (KR × KR) @ (KR × C·batch) int8 matmul — the preknown-left
    // orientation fuses the batch along the streamed column dimension.
    sim.charge_vpu(
        n * batch,
        2 * K as u32,
        Category::TypeConversion,
        "u32->chunks",
    );
    sim.charge_matmul_u8(K * r, K * r, c * batch, cat);
    sim.charge_vpu(n * batch, K as u32, Category::VecModOps, "merge");
    sim.charge_vpu(
        n * batch,
        ModRed::Montgomery.vpu_ops(),
        Category::VecModOps,
        "mont reduce",
    );
    // step 2: element-wise twiddle on the VPU
    sim.charge_vpu(
        n * batch,
        ModRed::Montgomery.vpu_ops(),
        Category::VecModOps,
        "step2 twiddle",
    );
    // relayout between the two batched matmul orientations
    sim.charge_reshape((n * batch * 4) as f64, Category::CopyReshape);
    // step 3 prologue: chunk decomposition for the right matmul.
    sim.charge_vpu(
        n * batch,
        2 * K as u32,
        Category::TypeConversion,
        "u32->chunks",
    );
}

/// Step-3 chunk merge + final reduction, shared by both lowerings.
fn charge_ntt_step3_epilogue(sim: &mut TpuSim, n: usize, batch: usize) {
    sim.charge_vpu(n * batch, K as u32, Category::VecModOps, "merge");
    sim.charge_vpu(
        n * batch,
        ModRed::Montgomery.vpu_ops(),
        Category::VecModOps,
        "mont reduce",
    );
}

/// Charges one batch of `batch` forward/inverse NTTs at factorization
/// `(r, c)` (the Fig. 10 row-3 mapping: BAT matmul / VPU twiddle /
/// relayout / BAT matmul).
pub fn charge_ntt_batch(sim: &mut TpuSim, r: usize, c: usize, batch: usize, cat: Category) {
    let n = r * c;
    charge_ntt_through_step3_chunks(sim, r, c, batch, cat);
    // step 3: (R × KC) @ (KC × KC) per polynomial — XLA keeps the batch
    // dimension of the right-multiplication as separate matmul calls,
    // so tile padding is NOT amortized across the batch.
    for _ in 0..batch {
        sim.charge_matmul_u8(r, K * c, K * c, cat);
    }
    charge_ntt_step3_epilogue(sim, n, batch);
    // XLA no-fusion materialization of intermediates through HBM.
    sim.charge_materialize(
        ntt_materialize_bytes(n) * batch as f64,
        Category::CopyReshape,
    );
}

/// Charges one batch of `batch` forward/inverse NTTs at factorization
/// `(r, c)` under the **fused** batch-major lowering — the shapes of
/// [`cross_core::Ntt3Plan::charge_forward_batch`]: step 3 is a single
/// `(R·batch × KC) @ (KC × KC)` matmul (tile fill/drain amortized over
/// the whole batch) and intermediates never leave VMEM, so the only
/// HBM traffic on the compute path is the operator's own input/output
/// stream.
pub(crate) fn charge_ntt_batch_fused(
    sim: &mut TpuSim,
    r: usize,
    c: usize,
    batch: usize,
    cat: Category,
) {
    let n = r * c;
    charge_ntt_through_step3_chunks(sim, r, c, batch, cat);
    // step 3: ONE row-stacked matmul for the whole batch.
    sim.charge_matmul_u8(r * batch, K * c, K * c, cat);
    charge_ntt_step3_epilogue(sim, n, batch);
    // Fused kernel: only the batch's input read + output write touch
    // HBM on the compute path.
    sim.charge_materialize((2 * n * 4 * batch) as f64, Category::CopyReshape);
}

/// Charges the twiddle-parameter HBM load for an NTT plan at `(r, c)`.
pub fn charge_ntt_params(sim: &mut TpuSim, r: usize, c: usize) {
    let bytes = (K * r * K * r) + (K * c * K * c) + r * c * 4;
    sim.dma_in(bytes as f64, "ntt twiddles");
}

/// Charges a BConv of `batch` polynomials from `l_in` to `l_out` limbs
/// through BAT (paper Tab. VI shapes).
pub fn charge_bconv(sim: &mut TpuSim, n: usize, l_in: usize, l_out: usize, batch: usize) {
    let rows = n * batch;
    sim.charge_vpu(
        rows * l_in,
        ModRed::Montgomery.vpu_ops(),
        Category::VecModOps,
        "bconv step1",
    );
    sim.dma_in((K * l_in * K * l_out) as f64, "bconv primes");
    sim.charge_vpu(
        rows * l_in,
        2 * K as u32,
        Category::TypeConversion,
        "chunks",
    );
    sim.charge_matmul_u8(rows, K * l_in, K * l_out, Category::BconvMatMul);
    sim.charge_vpu(rows * l_out, K as u32, Category::VecModOps, "merge");
    sim.charge_vpu(
        rows * l_out,
        ModRed::Montgomery.vpu_ops(),
        Category::VecModOps,
        "reduce",
    );
}

/// Charges `count` limb-wise vectorized modular multiplies of degree `n`
/// (operands + result round-trip HBM between unfused XLA ops).
pub(crate) fn charge_vec_mod_mul(sim: &mut TpuSim, n: usize, count: usize) {
    sim.charge_vpu(
        n * count,
        ModRed::Montgomery.vpu_ops(),
        Category::VecModOps,
        "vecmodmul",
    );
    sim.charge_materialize((n * count * 12) as f64, Category::VecModOps);
}

/// Charges `count` limb-wise vectorized modular additions of degree `n`.
pub(crate) fn charge_vec_mod_add(sim: &mut TpuSim, n: usize, count: usize) {
    sim.charge_vpu(n * count, 2, Category::VecModOps, "vecmodadd");
    sim.charge_materialize((n * count * 12) as f64, Category::VecModOps);
}

/// Charges the slot permutation of an automorphism over `limbs` limbs —
/// the worst-case random gather/scatter of paper §V-C (Permutation
/// category, run length 1).
pub(crate) fn charge_automorphism_permutation(sim: &mut TpuSim, n: usize, limbs: usize) {
    for _ in 0..limbs {
        sim.charge_shuffle(n, 8, Category::Permutation);
    }
}

/// `(R, C)` used for HE-operator kernels at degree `n` (sweep winner;
/// §V-A sweeps {(128,512),(256,256),(512,128)} for Set D).
pub(crate) fn he_rc(n: usize) -> (usize, usize) {
    // Balanced-to-wide factorization: prefer R=256 when possible.
    for r in [256usize, 128, 512, 64, 32, 16, 8] {
        if r <= n && n.is_multiple_of(r) && n / r >= 2 {
            return (r, n / r);
        }
    }
    plan::standalone_ntt_rc(n)
}

/// Kernel-count summary of one HE operator (drives the bootstrapping
/// estimator of Tab. IX and workload estimates of §V-D).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounts {
    /// Forward NTT limb-transforms.
    pub ntt: usize,
    /// Inverse NTT limb-transforms.
    pub intt: usize,
    /// BConv limb-conversions (counted as source-limb matmuls).
    pub bconv: usize,
    /// Vectorized modular multiplies (limb×degree units).
    pub vec_mod_mul: usize,
    /// Vectorized modular adds.
    pub vec_mod_add: usize,
    /// Automorphism slot permutations (limb units).
    pub automorphism: usize,
}

impl OpCounts {
    /// The counts of `batch` fused invocations of this operator: every
    /// kernel dimension scales linearly (the NTT transform count *is*
    /// the `batch` argument of [`charge_ntt_batch_fused`], so a scaled
    /// bundle charged in one kernel models the batch-major fusion).
    pub(crate) fn scaled(&self, batch: usize) -> OpCounts {
        OpCounts {
            ntt: self.ntt * batch,
            intt: self.intt * batch,
            bconv: self.bconv * batch,
            vec_mod_mul: self.vec_mod_mul * batch,
            vec_mod_add: self.vec_mod_add * batch,
            automorphism: self.automorphism * batch,
        }
    }
}

/// One HE-operator invocation bundle: the kernel counts, its key
/// traffic, and how many times the workload invokes it. This is the
/// unit the `cross_sched` op-graph interpreter charges, for a single
/// op and for a bootstrapping ([`crate::bootstrap::op_bundles`]) alike.
#[derive(Debug, Clone, Copy)]
pub struct OpBundle {
    /// Kernel label (reporting only; never affects the estimate).
    pub name: &'static str,
    /// Kernel counts of one invocation.
    pub counts: OpCounts,
    /// Switching-key HBM bytes per invocation (0 for un-keyed ops).
    pub key_bytes: f64,
    /// Invocation count.
    pub times: usize,
}

impl std::ops::Add for OpCounts {
    type Output = OpCounts;

    fn add(self, o: OpCounts) -> OpCounts {
        OpCounts {
            ntt: self.ntt + o.ntt,
            intt: self.intt + o.intt,
            bconv: self.bconv + o.bconv,
            vec_mod_mul: self.vec_mod_mul + o.vec_mod_mul,
            vec_mod_add: self.vec_mod_add + o.vec_mod_add,
            automorphism: self.automorphism + o.automorphism,
        }
    }
}

/// Result level of an operator that consumes `limbs_consumed` limbs at
/// level `l`, or `None` when `l` cannot host it (level 0, or no limb
/// left to drop). The one level rule: `OpSpec::counts` asserts it,
/// and `cross_sched`'s `OpGraph::add_op` and serving `admit` apply the
/// same function.
pub fn result_level(limbs_consumed: usize, l: usize) -> Option<usize> {
    l.checked_sub(limbs_consumed).filter(|&r| r >= 1)
}

/// Hybrid key-switching digits the model charges. Level-independent —
/// the host evaluator's `ctx.digit_count(l)` shrinks with the level
/// (ROADMAP 1c records the deviation).
fn model_digits(params: &CkksParams) -> usize {
    params.limbs.div_ceil(params.digit_limbs()).min(params.dnum)
}

/// The dimensions every phase formula reads, built once per
/// `(params, level)`.
struct Shape {
    /// Ciphertext limbs at this level.
    l: usize,
    /// Special (key-switching) limbs.
    k: usize,
    /// Source limbs of one digit's base extension (`α`, capped at `l`).
    alpha: usize,
    /// Key-switching digits.
    dnum: usize,
    /// Limbs of the extended basis (`l + k`).
    ext: usize,
}

/// One named step of an operator. An operator *is* its list of
/// phases: its kernel counts are their sum, it loads a switching key
/// exactly when it takes an inner product with one, and it consumes a
/// limb per rescale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Tensor product of two ciphertexts (`d0, d1, d2`).
    Tensor,
    /// Digit decomposition of the key-switched polynomial: its INTT,
    /// the per-digit base extensions, and the NTTs of the extended
    /// digit limbs. What a hoisted rotation fan-out pays once.
    DigitDecomposition,
    /// Inner product of the extended digits with both key polynomials.
    KeyInnerProduct,
    /// Mod-down of the key-switch result from the extended basis: INTT
    /// and base conversion of the special limbs, NTT back, scale, add.
    ModDown,
    /// HE-Mult's mod-down. **Not** [`Phase::ModDown`]: the model
    /// charges `l` fewer NTTs and `l` more adds than tensor + key
    /// switch + rescale would, as if the mod-down's return to the
    /// evaluation domain were folded into the rescale that follows.
    /// Kept as recorded — the golden bits depend on it (ROADMAP 1c
    /// lists it as a finding).
    ModDownBeforeRescale,
    /// Rescale of both polynomials: one INTT of the dropped limb and
    /// `l − 1` NTTs per polynomial, plus the limb-wise scale and
    /// subtract.
    Rescale,
    /// Worst-case slot permutation of both output polynomials.
    Automorphism,
    /// Limb-wise add of both polynomials.
    LimbwiseAdd,
    /// Limb-wise multiply of both polynomials by one plaintext.
    LimbwiseMul,
}

use Phase::*;

impl Phase {
    /// The phase's kernel counts at shape `s`: one row of the table
    /// below, whose columns the destructuring `let` names.
    fn counts(self, s: &Shape) -> OpCounts {
        let (l, k, alpha, dnum, ext) = (s.l, s.k, s.alpha, s.dnum, s.ext);
        let [ntt, intt, bconv, vec_mod_mul, vec_mod_add, automorphism] = match self {
            Tensor => [0, 0, 0, 4 * l, l, 0],
            DigitDecomposition => [dnum * (ext - alpha), l, dnum * alpha, 0, 0, 0],
            KeyInnerProduct => [0, 0, 0, 2 * dnum * ext, 2 * dnum * ext, 0],
            ModDown => [l, k, k, 2 * l, l, 0],
            ModDownBeforeRescale => [0, k, k, 2 * l, 2 * l, 0],
            Rescale => [2 * (l - 1), 2, 0, 2 * l, 2 * l, 0],
            Automorphism => [0, 0, 0, 0, 0, 2 * l],
            LimbwiseAdd => [0, 0, 0, 0, 2 * l, 0],
            LimbwiseMul => [0, 0, 0, 2 * l, 0, 0],
        };
        OpCounts {
            ntt,
            intt,
            bconv,
            vec_mod_mul,
            vec_mod_add,
            automorphism,
        }
    }
}

/// One HE operator, described once, as the phases it runs. The
/// `static`s below are the whole operator table.
#[derive(Debug)]
pub struct OpSpec {
    op: &'static str,
    phases: &'static [Phase],
}

/// HE-Add (and HE-Sub, and adding a plaintext): one limb-wise add.
pub static HE_ADD: OpSpec = OpSpec::new("HE-Add", &[LimbwiseAdd]);

/// Ciphertext × plaintext multiply (rescaling is counted separately).
pub static PLAIN_MULT: OpSpec = OpSpec::new("HE-PMult", &[LimbwiseMul]);

/// HE-Mult: tensor, relinearizing key switch, rescale.
pub static HE_MULT: OpSpec = OpSpec::new(
    "HE-Mult",
    &[
        Tensor,
        DigitDecomposition,
        KeyInnerProduct,
        ModDownBeforeRescale,
        Rescale,
    ],
);

/// HE-Rescale.
pub static RESCALE: OpSpec = OpSpec::new("Rescale", &[Rescale]);

/// Standalone hybrid key switch — [`ROTATE`] without the permutation.
pub static KEY_SWITCH: OpSpec =
    OpSpec::new("KeySwitch", &[DigitDecomposition, KeyInnerProduct, ModDown]);

/// HE-Rotate: [`HOIST_DECOMP`]'s phases followed by
/// [`HOISTED_ROTATE`]'s, so the hoisting split is an exact
/// repartition, not an approximation.
pub static ROTATE: OpSpec = OpSpec::new(
    "Rotate",
    &[DigitDecomposition, Automorphism, KeyInnerProduct, ModDown],
);

/// The shared digit decomposition a hoisted rotation fan-out pays
/// once: hoisting `k` rotations of one ciphertext trades `k` full
/// decompositions for one.
pub static HOIST_DECOMP: OpSpec = OpSpec::new("HoistDecomp", &[DigitDecomposition]);

/// One rotation riding a shared [`HOIST_DECOMP`]: everything in
/// [`ROTATE`] except the decomposition itself.
pub static HOISTED_ROTATE: OpSpec =
    OpSpec::new("HoistedRotate", &[Automorphism, KeyInnerProduct, ModDown]);

impl OpSpec {
    const fn new(op: &'static str, phases: &'static [Phase]) -> Self {
        Self { op, phases }
    }

    /// Limbs one invocation consumes — one per rescale (the argument
    /// of [`result_level`]).
    pub fn limbs_consumed(&self) -> usize {
        self.phases.iter().filter(|&&p| p == Rescale).count()
    }

    /// Kernel counts of one invocation at level `l`: the sum of the
    /// phases.
    ///
    /// # Panics
    /// Panics, naming the operator, when level `l` cannot host it
    /// ([`result_level`] is `None`).
    pub(crate) fn counts(&self, params: &CkksParams, l: usize) -> OpCounts {
        assert!(
            result_level(self.limbs_consumed(), l).is_some(),
            "{} cannot run at level {l}",
            self.op
        );
        let k = params.special_limbs();
        let shape = Shape {
            l,
            k,
            alpha: params.digit_limbs().min(l),
            dnum: model_digits(params),
            ext: l + k,
        };
        let sum = |acc, phase: &Phase| acc + phase.counts(&shape);
        self.phases.iter().fold(OpCounts::default(), sum)
    }

    /// The bundle of `batch` fused invocations at level `l`, reported
    /// as `name`: counts scaled by `batch`, and — when the operator
    /// takes a key inner product — its switching key, charged **once**
    /// whatever the batch: exactly the fusion win batch formation buys.
    pub fn bundle(
        &self,
        name: &'static str,
        params: &CkksParams,
        l: usize,
        batch: usize,
    ) -> OpBundle {
        let keyed = self.phases.contains(&Phase::KeyInnerProduct);
        OpBundle {
            name,
            counts: self.counts(params, l).scaled(batch),
            key_bytes: if keyed {
                switching_key_bytes(params, l)
            } else {
                0.0
            },
            times: 1,
        }
    }
}

/// Charges an [`OpCounts`] bundle onto one core as one kernel with an
/// explicit NTT lowering mode and resident working set — the shared
/// engine behind [`charge_op_mode`] and [`charge_op_pod`].
fn charge_op_inner(
    sim: &mut TpuSim,
    params: &CkksParams,
    counts: &OpCounts,
    key_bytes: f64,
    name: &str,
    mode: ExecMode,
    working_set_bytes: f64,
) -> KernelReport {
    let n = params.n;
    let (r, c) = he_rc(n);
    let ntt = |sim: &mut TpuSim, batch: usize, cat| match mode {
        ExecMode::Unfused => charge_ntt_batch(sim, r, c, batch, cat),
        ExecMode::FusedBatch => charge_ntt_batch_fused(sim, r, c, batch, cat),
    };
    sim.begin_kernel(name);
    if key_bytes > 0.0 {
        sim.dma_in(key_bytes, "switching key");
    }
    if counts.ntt > 0 {
        charge_ntt_params(sim, r, c);
        ntt(sim, counts.ntt, Category::NttMatMul);
    }
    if counts.intt > 0 {
        ntt(sim, counts.intt, Category::InttMatMul);
    }
    if counts.bconv > 0 {
        // modeled as one fused (N, K·bconv, K·bconv)-scale conversion
        charge_bconv(sim, n, counts.bconv, counts.bconv, 1);
    }
    charge_vec_mod_mul(sim, n, counts.vec_mod_mul);
    charge_vec_mod_add(sim, n, counts.vec_mod_add);
    if counts.automorphism > 0 {
        charge_automorphism_permutation(sim, n, counts.automorphism);
    }
    sim.spill_check(working_set_bytes, 1);
    sim.end_kernel()
}

/// Charges one invocation of `bundle` onto the simulator as one kernel
/// and returns its report ([`OpBundle::times`] is the caller's to
/// apply). `mode` picks the paper's XLA-unfused lowering or the fused
/// batch-major estimate. See [`charge_op_pod`] for multi-core sharding.
pub fn charge_op_mode(
    sim: &mut TpuSim,
    params: &CkksParams,
    bundle: &OpBundle,
    mode: ExecMode,
) -> KernelReport {
    let (counts, key_bytes) = (&bundle.counts, bundle.key_bytes);
    // working set: ciphertext + key digits resident
    let ws = (params.ciphertext_bytes() * 3) as f64 + key_bytes;
    charge_op_inner(sim, params, counts, key_bytes, bundle.name, mode, ws)
}

/// Charges one invocation of `bundle` sharded **limb-parallel** across
/// the cores of a pod and returns the pod-level report: per-core compute
/// shrinks by the ceil split, while the communication the sharding
/// actually requires is charged on the critical path —
///
/// * a switching-key *scatter* (each core receives the key rows for
///   its limb shard) when the op key-switches,
/// * an *all-gather* of the source-basis limb shards before BConv
///   (every core needs all input limbs to produce its output limbs),
/// * an *all-reduce* of the partial key-switch inner products (each
///   core holds partial sums over its digit shard).
///
/// With one core and [`cross_tpu::topology::LinkSpec::ZERO_COST`]
/// links this is bit-identical to [`charge_op_mode`] on a lone
/// [`TpuSim`] (pinned by `tests/pod_model.rs`).
pub fn charge_op_pod(
    pod: &mut PodSim,
    params: &CkksParams,
    bundle: &OpBundle,
    mode: ExecMode,
) -> PodKernelReport {
    let (name, counts, key_bytes) = (bundle.name, bundle.counts, bundle.key_bytes);
    let cores = pod.num_cores();
    let plan = ShardPlan::new(ShardStrategy::LimbParallel, cores);
    let comm_mark = pod.comm_trace().entries().len();

    let ntt_split = plan.split(counts.ntt);
    let intt_split = plan.split(counts.intt);
    let bconv_split = plan.split(counts.bconv);
    let vmul_split = plan.split(counts.vec_mod_mul);
    let vadd_split = plan.split(counts.vec_mod_add);
    let auto_split = plan.split(counts.automorphism);
    let key_shard = plan.shard_bytes(key_bytes);
    // Per-core resident set: the limb shard of ciphertext + key, plus —
    // once actually sharded — the full source basis the BConv
    // all-gather below lands on every core. (At one core the full
    // ciphertext term already covers those limbs, keeping the
    // bit-identity contract with `charge_op_mode`.)
    let gathered = if cores > 1 && counts.bconv > 0 {
        (counts.bconv * params.n * 4) as f64
    } else {
        0.0
    };
    let ws = plan.shard_bytes((params.ciphertext_bytes() * 3) as f64) + key_shard + gathered;

    let mut reports = Vec::with_capacity(cores);
    for core_idx in 0..cores {
        let shard = OpCounts {
            ntt: ntt_split[core_idx],
            intt: intt_split[core_idx],
            bconv: bconv_split[core_idx],
            vec_mod_mul: vmul_split[core_idx],
            vec_mod_add: vadd_split[core_idx],
            automorphism: auto_split[core_idx],
        };
        let sim = pod.core_mut(core_idx);
        reports.push(charge_op_inner(
            sim, params, &shard, key_shard, name, mode, ws,
        ));
    }

    if key_bytes > 0.0 {
        pod.scatter(key_bytes, "switching-key scatter");
    }
    if counts.bconv > 0 {
        let shard_bytes = (plan.critical_units(counts.bconv) * params.n * 4) as f64;
        pod.all_gather(shard_bytes, "bconv source-limb all-gather");
    }
    if key_bytes > 0.0 {
        pod.all_reduce(
            params.ciphertext_bytes() as f64,
            "key-switch partial-sum all-reduce",
        );
    }

    pod.assemble_report(name, &reports, comm_mark)
}

/// Amortized per-op seconds under **batch-parallel** sharding: every
/// core runs one whole independent operation (the throughput-serving
/// configuration), the switching key is broadcast once, and the wall
/// clock for the `P` ops — `max(core latency) + broadcast` — is
/// divided by the `P` operations actually completed. This is the only
/// place a core count divides anything, and it divides *work done*,
/// never a single op's latency.
pub fn amortized_op_pod(
    pod: &mut PodSim,
    params: &CkksParams,
    bundle: &OpBundle,
    mode: ExecMode,
) -> f64 {
    let cores = pod.num_cores();
    let comm_before = pod.comm_seconds();
    let mut max_latency = 0.0f64;
    for core_idx in 0..cores {
        let sim = pod.core_mut(core_idx);
        let rep = charge_op_mode(sim, params, bundle, mode);
        max_latency = max_latency.max(rep.latency_s);
    }
    if bundle.key_bytes > 0.0 {
        pod.broadcast(bundle.key_bytes, "switching-key broadcast");
    }
    let comm = pod.comm_seconds() - comm_before;
    (max_latency + comm) / cores as f64
}

/// Totals of charging a bundle list onto a pod — the engine behind
/// `cross_sched::cost_graph`.
#[derive(Debug, Clone, Default)]
pub struct BundlesReport {
    /// Limb-parallel critical-path seconds (Σ latency × times).
    pub critical_s: f64,
    /// Batch-parallel amortized seconds (Σ amortized × times).
    pub amortized_s: f64,
    /// Critical-path communication seconds (Σ comm × times).
    pub comm_s: f64,
    /// Times-weighted busy seconds per category (unnormalized).
    pub acc: std::collections::BTreeMap<Category, f64>,
    /// One pod report per charged bundle, in order.
    pub reports: Vec<PodKernelReport>,
}

/// The one bundle walk: charges every bundle limb-parallel onto
/// `critical` (critical path) and batch-parallel onto `amortized`,
/// interleaved per bundle. A probe that needs only one of the two
/// figures passes `None` for the other pod, which then opens no
/// kernel and leaves its totals zero.
///
/// The two pods must be distinct: the amortized estimates charge full
/// (unsharded) ops, which would otherwise perturb the critical-path
/// cores' charge sequence — kernel deltas are floating-point sums over
/// the accumulated trace, and the 1-core/zero-link bit-identity
/// contract (`tests/pod_model.rs`) requires the critical sequence to
/// stay exact.
pub fn charge_bundles_pod(
    mut critical: Option<&mut PodSim>,
    mut amortized: Option<&mut PodSim>,
    params: &CkksParams,
    bundles: &[OpBundle],
    mode: ExecMode,
) -> BundlesReport {
    let mut out = BundlesReport::default();
    for b in bundles.iter().filter(|b| b.times > 0) {
        let times = b.times as f64;
        let rep = critical
            .as_deref_mut()
            .map(|pod| charge_op_pod(pod, params, b, mode));
        if let Some(pod) = amortized.as_deref_mut() {
            out.amortized_s += amortized_op_pod(pod, params, b, mode) * times;
        }
        // Accounted after both charges: allocating (`reports`) between
        // them was measured to cost `cost_graph` ~10 % of its host time
        // — the pods' trace buffers regrow as they are charged, and
        // that regrowth is sensitive to heap state.
        if let Some(rep) = rep {
            for (cat, s) in &rep.breakdown {
                *out.acc.entry(*cat).or_insert(0.0) += s * times;
            }
            out.critical_s += rep.latency_s * times;
            out.comm_s += rep.comm_s * times;
            out.reports.push(rep);
        }
    }
    out
}

/// Normalizes an accumulated category map into fractions sorted by
/// descending share (the Tab. IX row shape).
pub fn normalize_breakdown(acc: std::collections::BTreeMap<Category, f64>) -> Vec<(Category, f64)> {
    let sum: f64 = acc.values().sum();
    let mut breakdown: Vec<(Category, f64)> = acc
        .into_iter()
        .map(|(c, s)| (c, if sum > 0.0 { s / sum } else { 0.0 }))
        .collect();
    breakdown.sort_by(|a, b| b.1.total_cmp(&a.1));
    breakdown
}

/// Switching-key bytes at level `l` (dnum digits × 2 polys × (l+k) limbs).
pub(crate) fn switching_key_bytes(params: &CkksParams, l: usize) -> f64 {
    (model_digits(params) * 2 * (l + params.special_limbs()) * params.n * 4) as f64
}

/// Modeled seconds to (re-)admit one switching key into pod residency
/// after a key-cache miss: the HBM DMA of `bytes` of key material plus
/// the limb-shard scatter — the same two charges a keyed
/// [`charge_op_pod`] pays for a non-resident key. A multi-tenant
/// serving loop bills this once per miss instead of assuming every
/// tenant's keys live in VMEM forever (switching keys are the dominant
/// memory object; cf. the key cache in `cross_sched::keycache`).
///
/// Charged on a **fresh probe pod** so the estimate is pure: calling
/// it never perturbs an accumulated trace, and the same
/// `(gen, cores, bytes)` always yields the same figure.
pub fn key_admit_s(gen: TpuGeneration, cores: u32, bytes: f64) -> f64 {
    if bytes <= 0.0 {
        return 0.0;
    }
    let mut pod = PodSim::new(gen, cores);
    let hbm = pod.core(0).spec().hbm_seconds(bytes);
    let scatter = pod.scatter(bytes, "key re-admit scatter");
    hbm + scatter
}

/// Pod-level backbone estimate at top level: for each of the four
/// operators, the limb-parallel critical-path report
/// ([`charge_op_pod`]) and the batch-parallel amortized per-op seconds
/// ([`amortized_op_pod`]).
pub fn backbone_latencies_pod(
    pod: &mut PodSim,
    params: &CkksParams,
    mode: ExecMode,
) -> [(String, PodKernelReport, f64); 4] {
    // Amortized estimates charge full (unsharded) ops on a cloned pod
    // so they cannot perturb the critical-path cores' charge sequence
    // (see `charge_bundles_pod`).
    let mut amortized_pod = pod.clone();
    [
        ("HE-Add", &HE_ADD),
        ("HE-Mult", &HE_MULT),
        ("Rescale", &RESCALE),
        ("Rotate", &ROTATE),
    ]
    .map(|(name, spec)| {
        let b = spec.bundle(name, params, params.limbs, 1);
        let rep = charge_op_pod(pod, params, &b, mode);
        let amortized = amortized_op_pod(&mut amortized_pod, params, &b, mode);
        (name.to_string(), rep, amortized)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use cross_tpu::TpuGeneration;

    /// `spec` at the top level of `p`, charged unfused on one core.
    fn charge_top(sim: &mut TpuSim, p: &CkksParams, spec: &OpSpec, mode: ExecMode) -> KernelReport {
        charge_op_mode(sim, p, &spec.bundle("op", p, p.limbs, 1), mode)
    }

    /// Busy seconds of the categories `pred` keeps.
    fn busy(rep: &KernelReport, pred: impl Fn(Category) -> bool) -> f64 {
        let kept = rep.breakdown.iter().filter(|(c, _)| pred(*c));
        kept.map(|(_, s)| *s).sum()
    }

    #[test]
    fn mult_dominates_add() {
        let p = ParamSet::D.params();
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let add = charge_top(&mut sim, &p, &HE_ADD, ExecMode::Unfused).latency_s;
        let mult = charge_top(&mut sim, &p, &HE_MULT, ExecMode::Unfused).latency_s;
        assert!(mult > 20.0 * add, "mult {mult} vs add {add}");
    }

    #[test]
    fn rotate_has_permutation_cost() {
        let p = ParamSet::D.params();
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let rep = charge_top(&mut sim, &p, &ROTATE, ExecMode::Unfused);
        assert!(busy(&rep, |c| c == Category::Permutation) > 0.0);
    }

    #[test]
    fn vecmodops_dominate_he_mult() {
        // Fig. 12: HE-Mult is VPU-bound (~51 % VecModOps, matmuls ~25 %).
        let p = ParamSet::D.params();
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let rep = charge_top(&mut sim, &p, &HE_MULT, ExecMode::Unfused);
        let total = busy(&rep, |_| true);
        let vec = busy(&rep, |c| c == Category::VecModOps);
        let mxu = busy(&rep, |c| c.is_mxu());
        assert!(vec / total > 0.3, "VecModOps share {}", vec / total);
        assert!(vec > mxu, "VPU-bound: vec {vec} vs mxu {mxu}");
    }

    #[test]
    fn latency_grows_with_limbs() {
        let mut last = 0.0;
        for set in [ParamSet::A, ParamSet::B, ParamSet::C, ParamSet::D] {
            let p = set.params();
            let mut sim = TpuSim::new(TpuGeneration::V6e);
            let rep = charge_top(&mut sim, &p, &HE_MULT, ExecMode::Unfused);
            assert!(rep.latency_s > last, "{}", set.name());
            last = rep.latency_s;
        }
    }

    #[test]
    fn fused_batch_mode_beats_unfused() {
        // The fused lowering amortizes step-3 tile padding and keeps
        // intermediates in VMEM — it must be strictly faster for every
        // backbone op that transforms (ROADMAP "batched HE-op cost
        // model").
        let p = ParamSet::D.params();
        for spec in [&HE_MULT, &ROTATE, &RESCALE] {
            let mut s_u = TpuSim::new(TpuGeneration::V6e);
            let mut s_f = TpuSim::new(TpuGeneration::V6e);
            let unfused = charge_top(&mut s_u, &p, spec, ExecMode::Unfused);
            let fused = charge_top(&mut s_f, &p, spec, ExecMode::FusedBatch);
            assert!(
                fused.latency_s < unfused.latency_s,
                "fused {} vs unfused {}",
                fused.latency_s,
                unfused.latency_s
            );
        }
    }

    #[test]
    fn hoist_split_reproduces_rotate_counts_exactly() {
        // decomp + hoisted-rotate must equal rotate component-wise at
        // every level of every set: the hoisting pass relies on this
        // split being an exact repartition, not an approximation.
        for set in ParamSet::ALL {
            let p = set.params();
            for l in 1..=p.limbs {
                let rot = ROTATE.counts(&p, l);
                let dec = HOIST_DECOMP.counts(&p, l);
                let hoist = HOISTED_ROTATE.counts(&p, l);
                assert_eq!(dec.intt + hoist.intt, rot.intt, "{} l={l}", set.name());
                assert_eq!(dec.ntt + hoist.ntt, rot.ntt, "{} l={l}", set.name());
                assert_eq!(dec.bconv + hoist.bconv, rot.bconv, "{} l={l}", set.name());
                assert_eq!(
                    dec.vec_mod_mul + hoist.vec_mod_mul,
                    rot.vec_mod_mul,
                    "{} l={l}",
                    set.name()
                );
                assert_eq!(
                    dec.vec_mod_add + hoist.vec_mod_add,
                    rot.vec_mod_add,
                    "{} l={l}",
                    set.name()
                );
                assert_eq!(
                    dec.automorphism + hoist.automorphism,
                    rot.automorphism,
                    "{} l={l}",
                    set.name()
                );
                // The decomposition is real work — hoisting k rotations
                // must actually remove k-1 copies of something.
                assert!(dec.intt + dec.ntt + dec.bconv > 0, "{} l={l}", set.name());
                // And a rotate is a key switch plus the permutation.
                let ks = KEY_SWITCH.counts(&p, l);
                assert_eq!(
                    OpCounts {
                        automorphism: 0,
                        ..rot
                    },
                    ks,
                    "{} l={l}",
                    set.name()
                );
            }
        }
    }

    #[test]
    fn counts_are_the_recorded_closed_forms() {
        // The phase sums against the formulas the per-operator builders
        // spelled out before the table replaced them — including
        // HE-Mult's, which is *not* tensor + key switch + rescale.
        for set in ParamSet::ALL {
            let p = set.params();
            let (k, alpha) = (p.special_limbs(), p.digit_limbs());
            let dnum = p.limbs.div_ceil(alpha).min(p.dnum);
            for l in 2..=p.limbs {
                let ext = l + k;
                let mult = OpCounts {
                    intt: l + 2 + k,
                    ntt: dnum * (ext - alpha.min(l)) + 2 * (l - 1),
                    bconv: dnum * alpha.min(l) + k,
                    vec_mod_mul: 4 * l + 2 * dnum * ext + 2 * l + 2 * l,
                    vec_mod_add: l + 2 * dnum * ext + 2 * l + 2 * l,
                    automorphism: 0,
                };
                assert_eq!(HE_MULT.counts(&p, l), mult, "{} l={l}", set.name());
                let composed = tensor_ks_rescale(&p, l);
                assert_eq!(mult.ntt + l, composed.ntt, "{} l={l}", set.name());
                assert_eq!(mult.vec_mod_add, composed.vec_mod_add + l);
                let rotate = OpCounts {
                    intt: l + k,
                    ntt: dnum * (ext - alpha.min(l)) + l,
                    bconv: dnum * alpha.min(l) + k,
                    vec_mod_mul: 2 * dnum * ext + 2 * l,
                    vec_mod_add: 2 * dnum * ext + l,
                    automorphism: 2 * l,
                };
                assert_eq!(ROTATE.counts(&p, l), rotate, "{} l={l}", set.name());
            }
        }
    }

    /// What HE-Mult would count were it tensor + key switch + rescale.
    fn tensor_ks_rescale(p: &CkksParams, l: usize) -> OpCounts {
        let tensor_only = OpSpec::new("tensor", &[Phase::Tensor]);
        tensor_only.counts(p, l) + KEY_SWITCH.counts(p, l) + RESCALE.counts(p, l)
    }

    #[test]
    fn bad_levels_are_rejected_by_name_not_wrapped() {
        // `2 * (l - 1)` used to underflow on these: a debug panic
        // without the operator's name, ~2^64 transforms in release.
        let p = ParamSet::B.params();
        for (spec, name) in [(&RESCALE, "Rescale"), (&HE_MULT, "HE-Mult")] {
            for l in [0, 1] {
                let err = std::panic::catch_unwind(|| spec.counts(&p, l)).expect_err("too low");
                let msg = err.downcast_ref::<String>().expect("formatted panic");
                assert!(
                    msg.contains(name) && msg.contains(&format!("level {l}")),
                    "{msg}"
                );
            }
            assert_eq!(result_level(spec.limbs_consumed(), 2), Some(1));
        }
        // Limb-preserving operators run at level 1, nothing at level 0.
        assert_eq!(ROTATE.counts(&p, 1).automorphism, 2);
        assert_eq!(result_level(ROTATE.limbs_consumed(), 1), Some(1));
        assert!(std::panic::catch_unwind(|| HE_ADD.counts(&p, 0)).is_err());
    }

    #[test]
    fn charge_bconv_matches_shapes() {
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        charge_bconv(&mut sim, 32, 4, 4, 2);
        assert!(sim.trace().seconds_of(Category::BconvMatMul) > 0.0);
        assert!(sim.hbm_seconds() > 0.0, "the BAT prime matrix is loaded");
    }

    #[test]
    fn pod_speedup_is_sublinear() {
        let p = ParamSet::C.params();
        let b = HE_MULT.bundle("m", &p, p.limbs, 1);
        let mut single = TpuSim::new(TpuGeneration::V6e);
        let one = charge_top(&mut single, &p, &HE_MULT, ExecMode::Unfused).latency_s;
        let mut pod = PodSim::new(TpuGeneration::V6e, 8);
        let rep = charge_op_pod(&mut pod, &p, &b, ExecMode::Unfused);
        assert!(rep.latency_s < one, "8 cores must beat 1");
        assert!(
            rep.latency_s > one / 8.0,
            "communication forbids linear speedup: {} vs {}",
            rep.latency_s,
            one / 8.0
        );
        assert!(rep.comm_s > 0.0, "keyed op must communicate");
    }

    #[test]
    fn generations_order_for_he_mult() {
        // Newer generations should be faster for the same op.
        let p = ParamSet::C.params();
        let mut lat = Vec::new();
        for gen in [TpuGeneration::V4, TpuGeneration::V5p, TpuGeneration::V6e] {
            let mut sim = TpuSim::new(gen);
            lat.push(charge_top(&mut sim, &p, &HE_MULT, ExecMode::Unfused).latency_s);
        }
        assert!(lat[0] > lat[2], "v4 {} vs v6e {}", lat[0], lat[2]);
    }
}
