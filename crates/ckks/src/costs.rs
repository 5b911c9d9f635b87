//! Shape-level TPU cost charging for HE operators (paper Tab. VIII,
//! Fig. 12 methodology).
//!
//! These functions reproduce the paper's measurement setup without
//! materializing Set-D-sized functional data: every kernel charges the
//! exact op shapes the lowered implementation executes (BAT matmuls,
//! VecModOps, type conversions, relayouts, permutations, HBM parameter
//! traffic), and the roofline in [`TpuSim`] turns them into latency.
//! The same shapes drive the functional path at small degrees, where
//! the two are asserted to agree.

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
pub fn charge_ntt_batch_fused(sim: &mut TpuSim, r: usize, c: usize, batch: usize, cat: Category) {
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
pub fn charge_vec_mod_mul(sim: &mut TpuSim, n: usize, count: usize) {
    sim.charge_vpu(
        n * count,
        ModRed::Montgomery.vpu_ops(),
        Category::VecModOps,
        "vecmodmul",
    );
    sim.charge_materialize((n * count * 12) as f64, Category::VecModOps);
}

/// Charges `count` limb-wise vectorized modular additions of degree `n`.
pub fn charge_vec_mod_add(sim: &mut TpuSim, n: usize, count: usize) {
    sim.charge_vpu(n * count, 2, Category::VecModOps, "vecmodadd");
    sim.charge_materialize((n * count * 12) as f64, Category::VecModOps);
}

/// Charges the slot permutation of an automorphism over `limbs` limbs —
/// the worst-case random gather/scatter of paper §V-C (Permutation
/// category, run length 1).
pub fn charge_automorphism_permutation(sim: &mut TpuSim, n: usize, limbs: usize) {
    for _ in 0..limbs {
        sim.charge_shuffle(n, 8, Category::Permutation);
    }
}

/// `(R, C)` used for HE-operator kernels at degree `n` (sweep winner;
/// §V-A sweeps {(128,512),(256,256),(512,128)} for Set D).
pub fn he_rc(n: usize) -> (usize, usize) {
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
    pub fn scaled(&self, batch: usize) -> OpCounts {
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

/// HE-Mult kernel counts at level `l` (tensor, hybrid KS, rescale).
pub fn he_mult_counts(params: &CkksParams, l: usize) -> OpCounts {
    let dnum = params.limbs.div_ceil(params.digit_limbs()).min(params.dnum);
    let alpha = params.digit_limbs();
    let k = params.special_limbs();
    let ext = l + k;
    OpCounts {
        // KS: INTT of d2 (l) ; rescale: 1 INTT per poly (2).
        intt: l + 2 + k,
        // KS: NTT of extended digits; rescale: (l-1) NTTs per poly.
        ntt: dnum * (ext - alpha.min(l)) + 2 * (l - 1),
        bconv: dnum * alpha.min(l) + k,
        // tensor (4l) + KS inner products (2·dnum·ext) + moddown (2l) + rescale (2l)
        vec_mod_mul: 4 * l + 2 * dnum * ext + 2 * l + 2 * l,
        vec_mod_add: l + 2 * dnum * ext + 2 * l + 2 * l,
        automorphism: 0,
    }
}

/// Hybrid key-switch kernel counts at level `l` — the shared core of
/// [`he_rotate_counts`] (which adds the automorphism permutations) and
/// the standalone `KeySwitch` IR node of `cross_sched`.
pub fn he_key_switch_counts(params: &CkksParams, l: usize) -> OpCounts {
    let dnum = params.limbs.div_ceil(params.digit_limbs()).min(params.dnum);
    let alpha = params.digit_limbs();
    let k = params.special_limbs();
    let ext = l + k;
    OpCounts {
        intt: l + k,
        ntt: dnum * (ext - alpha.min(l)) + l,
        bconv: dnum * alpha.min(l) + k,
        vec_mod_mul: 2 * dnum * ext + 2 * l,
        vec_mod_add: 2 * dnum * ext + l,
        automorphism: 0,
    }
}

/// HE-Rotate kernel counts at level `l`: one key switch plus the
/// worst-case slot permutation on both output polynomials.
pub fn he_rotate_counts(params: &CkksParams, l: usize) -> OpCounts {
    OpCounts {
        automorphism: 2 * l,
        ..he_key_switch_counts(params, l)
    }
}

/// Kernel counts of the **shared digit decomposition** a hoisted
/// rotation fan-out pays once: INTT of the key-switched polynomial's
/// limbs, the per-digit base extensions, and the NTTs of the extended
/// digit limbs. Splitting [`he_rotate_counts`] here is exact —
/// [`he_hoist_decomp_counts`]` + `[`he_hoisted_rotate_counts`]
/// reproduces the rotate counts component-wise (pinned in this
/// module's tests), so hoisting `k` rotations of one ciphertext trades
/// `k` full decompositions for one.
pub fn he_hoist_decomp_counts(params: &CkksParams, l: usize) -> OpCounts {
    let dnum = params.limbs.div_ceil(params.digit_limbs()).min(params.dnum);
    let alpha = params.digit_limbs();
    let k = params.special_limbs();
    let ext = l + k;
    OpCounts {
        intt: l,
        ntt: dnum * (ext - alpha.min(l)),
        bconv: dnum * alpha.min(l),
        vec_mod_mul: 0,
        vec_mod_add: 0,
        automorphism: 0,
    }
}

/// Kernel counts of one rotation riding a shared decomposition
/// ([`he_hoist_decomp_counts`]): the automorphism permutations, the
/// key inner products, and the mod-down — everything in
/// [`he_rotate_counts`] except the decomposition itself.
pub fn he_hoisted_rotate_counts(params: &CkksParams, l: usize) -> OpCounts {
    let dnum = params.limbs.div_ceil(params.digit_limbs()).min(params.dnum);
    let k = params.special_limbs();
    let ext = l + k;
    OpCounts {
        intt: k,
        ntt: l,
        bconv: k,
        vec_mod_mul: 2 * dnum * ext + 2 * l,
        vec_mod_add: 2 * dnum * ext + l,
        automorphism: 2 * l,
    }
}

/// Plaintext-multiply kernel counts at level `l` (2 polys × `l` limb
/// VecModMuls; rescaling is counted separately). Shared by the
/// bootstrapping estimator and the HELR/MNIST workload bins.
pub fn he_plain_mult_counts(_params: &CkksParams, l: usize) -> OpCounts {
    OpCounts {
        vec_mod_mul: 2 * l,
        ..OpCounts::default()
    }
}

/// HE-Rescale kernel counts at level `l`.
pub fn he_rescale_counts(_params: &CkksParams, l: usize) -> OpCounts {
    OpCounts {
        intt: 2,
        ntt: 2 * (l - 1),
        bconv: 0,
        vec_mod_mul: 2 * l,
        vec_mod_add: 2 * l,
        automorphism: 0,
    }
}

/// HE-Add kernel counts at level `l`.
pub fn he_add_counts(_params: &CkksParams, l: usize) -> OpCounts {
    OpCounts {
        vec_mod_add: 2 * l,
        ..OpCounts::default()
    }
}

/// Charges an [`OpCounts`] bundle onto one core as one kernel with an
/// explicit NTT lowering mode and resident working set — the shared
/// engine behind [`charge_op`], [`charge_op_mode`] and
/// [`charge_op_pod`].
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

/// Charges an [`OpCounts`] bundle onto the simulator as one kernel and
/// returns its report. `key_bytes` models the switching-key HBM
/// traffic. Uses the paper's XLA-unfused lowering
/// ([`ExecMode::Unfused`]); see [`charge_op_mode`] for the fused
/// batch-major estimate and [`charge_op_pod`] for multi-core sharding.
pub fn charge_op(
    sim: &mut TpuSim,
    params: &CkksParams,
    counts: &OpCounts,
    key_bytes: f64,
    name: &str,
) -> KernelReport {
    charge_op_mode(sim, params, counts, key_bytes, name, ExecMode::Unfused)
}

/// [`charge_op`] with an explicit NTT lowering mode.
pub fn charge_op_mode(
    sim: &mut TpuSim,
    params: &CkksParams,
    counts: &OpCounts,
    key_bytes: f64,
    name: &str,
    mode: ExecMode,
) -> KernelReport {
    // working set: ciphertext + key digits resident
    let ws = (params.ciphertext_bytes() * 3) as f64 + key_bytes;
    charge_op_inner(sim, params, counts, key_bytes, name, mode, ws)
}

/// Charges an [`OpCounts`] bundle sharded **limb-parallel** across the
/// cores of a pod and returns the pod-level report: per-core compute
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
/// links this is bit-identical to [`charge_op`] on a lone [`TpuSim`]
/// (pinned by `tests/pod_model.rs`).
pub fn charge_op_pod(
    pod: &mut PodSim,
    params: &CkksParams,
    counts: &OpCounts,
    key_bytes: f64,
    name: &str,
    mode: ExecMode,
) -> PodKernelReport {
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
    // bit-identity contract with `charge_op`.)
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
    counts: &OpCounts,
    key_bytes: f64,
    name: &str,
    mode: ExecMode,
) -> f64 {
    let cores = pod.num_cores();
    let comm_before = pod.comm_seconds();
    let mut max_latency = 0.0f64;
    for core_idx in 0..cores {
        let sim = pod.core_mut(core_idx);
        let rep = charge_op_mode(sim, params, counts, key_bytes, name, mode);
        max_latency = max_latency.max(rep.latency_s);
    }
    if key_bytes > 0.0 {
        pod.broadcast(key_bytes, "switching-key broadcast");
    }
    let comm = pod.comm_seconds() - comm_before;
    (max_latency + comm) / cores as f64
}

/// One HE-operator invocation bundle: the kernel counts, its key
/// traffic, and how many times the workload invokes it. This is the
/// unit both the bootstrapping estimator
/// ([`crate::bootstrap::op_bundles`]) and the `cross_sched` op-graph
/// interpreter charge, so their sequences cannot diverge.
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

/// Totals of charging a bundle list onto a pod — the shared engine
/// behind [`crate::bootstrap::estimate_pod`] and
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

/// Charges every bundle limb-parallel onto `pod` (critical path) and
/// batch-parallel onto `amortized_pod`, interleaved per bundle.
///
/// The two pods must be distinct: the amortized estimates charge full
/// (unsharded) ops, which would otherwise perturb the critical-path
/// cores' charge sequence — kernel deltas are floating-point sums over
/// the accumulated trace, and the 1-core/zero-link bit-identity
/// contract (`tests/pod_model.rs`) requires the critical sequence to
/// stay exact.
pub fn charge_bundles_pod(
    pod: &mut PodSim,
    amortized_pod: &mut PodSim,
    params: &CkksParams,
    bundles: &[OpBundle],
    mode: ExecMode,
) -> BundlesReport {
    let mut out = BundlesReport::default();
    for b in bundles {
        if b.times == 0 {
            continue;
        }
        let rep = charge_op_pod(pod, params, &b.counts, b.key_bytes, b.name, mode);
        for (cat, s) in &rep.breakdown {
            *out.acc.entry(*cat).or_insert(0.0) += s * b.times as f64;
        }
        out.critical_s += rep.latency_s * b.times as f64;
        out.comm_s += rep.comm_s * b.times as f64;
        out.amortized_s +=
            amortized_op_pod(amortized_pod, params, &b.counts, b.key_bytes, b.name, mode)
                * b.times as f64;
        out.reports.push(rep);
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
pub fn switching_key_bytes(params: &CkksParams, l: usize) -> f64 {
    let dnum = params.limbs.div_ceil(params.digit_limbs()).min(params.dnum);
    (dnum * 2 * (l + params.special_limbs()) * params.n * 4) as f64
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

/// Convenience: simulated latency (seconds) of the four backbone HE
/// operators at top level on one tensor core.
pub fn backbone_latencies(sim: &mut TpuSim, params: &CkksParams) -> [(String, KernelReport); 4] {
    let l = params.limbs;
    let add = charge_op(sim, params, &he_add_counts(params, l), 0.0, "HE-Add");
    let mult = charge_op(
        sim,
        params,
        &he_mult_counts(params, l),
        switching_key_bytes(params, l),
        "HE-Mult",
    );
    let rescale = charge_op(sim, params, &he_rescale_counts(params, l), 0.0, "Rescale");
    let rotate = charge_op(
        sim,
        params,
        &he_rotate_counts(params, l),
        switching_key_bytes(params, l),
        "Rotate",
    );
    [
        ("HE-Add".into(), add),
        ("HE-Mult".into(), mult),
        ("Rescale".into(), rescale),
        ("Rotate".into(), rotate),
    ]
}

/// Pod-level backbone estimate: for each of the four operators, the
/// limb-parallel critical-path report ([`charge_op_pod`]) and the
/// batch-parallel amortized per-op seconds ([`amortized_op_pod`]).
pub fn backbone_latencies_pod(
    pod: &mut PodSim,
    params: &CkksParams,
    mode: ExecMode,
) -> [(String, PodKernelReport, f64); 4] {
    let l = params.limbs;
    let key = switching_key_bytes(params, l);
    // Amortized estimates charge full (unsharded) ops on a cloned pod
    // so they cannot perturb the critical-path cores' charge sequence
    // (kernel deltas are floating-point sums over the accumulated
    // trace; same hazard `bootstrap::estimate_pod` documents).
    let mut amortized_pod = pod.clone();
    let mut one = |counts: &OpCounts, key_bytes: f64, name: &str| {
        let rep = charge_op_pod(pod, params, counts, key_bytes, name, mode);
        let amortized = amortized_op_pod(&mut amortized_pod, params, counts, key_bytes, name, mode);
        (name.to_string(), rep, amortized)
    };
    [
        one(&he_add_counts(params, l), 0.0, "HE-Add"),
        one(&he_mult_counts(params, l), key, "HE-Mult"),
        one(&he_rescale_counts(params, l), 0.0, "Rescale"),
        one(&he_rotate_counts(params, l), key, "Rotate"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use cross_tpu::TpuGeneration;

    #[test]
    fn mult_dominates_add() {
        let p = ParamSet::D.params();
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let lat = backbone_latencies(&mut sim, &p);
        let add = lat[0].1.latency_s;
        let mult = lat[1].1.latency_s;
        assert!(mult > 20.0 * add, "mult {mult} vs add {add}");
    }

    #[test]
    fn rotate_has_permutation_cost() {
        let p = ParamSet::D.params();
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let counts = he_rotate_counts(&p, p.limbs);
        let rep = charge_op(
            &mut sim,
            &p,
            &counts,
            switching_key_bytes(&p, p.limbs),
            "rot",
        );
        let perm: f64 = rep
            .breakdown
            .iter()
            .filter(|(c, _)| *c == Category::Permutation)
            .map(|(_, s)| *s)
            .sum();
        assert!(perm > 0.0);
    }

    #[test]
    fn vecmodops_dominate_he_mult() {
        // Fig. 12: HE-Mult is VPU-bound (~51 % VecModOps, matmuls ~25 %).
        let p = ParamSet::D.params();
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let counts = he_mult_counts(&p, p.limbs);
        let rep = charge_op(&mut sim, &p, &counts, switching_key_bytes(&p, p.limbs), "m");
        let total: f64 = rep.breakdown.iter().map(|(_, s)| s).sum();
        let vec: f64 = rep
            .breakdown
            .iter()
            .filter(|(c, _)| *c == Category::VecModOps)
            .map(|(_, s)| *s)
            .sum();
        let mxu: f64 = rep
            .breakdown
            .iter()
            .filter(|(c, _)| c.is_mxu())
            .map(|(_, s)| *s)
            .sum();
        assert!(vec / total > 0.3, "VecModOps share {}", vec / total);
        assert!(vec > mxu, "VPU-bound: vec {vec} vs mxu {mxu}");
    }

    #[test]
    fn latency_grows_with_limbs() {
        let mut last = 0.0;
        for set in [ParamSet::A, ParamSet::B, ParamSet::C, ParamSet::D] {
            let p = set.params();
            let mut sim = TpuSim::new(TpuGeneration::V6e);
            let counts = he_mult_counts(&p, p.limbs);
            let rep = charge_op(&mut sim, &p, &counts, switching_key_bytes(&p, p.limbs), "m");
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
        for (counts, key) in [
            (
                he_mult_counts(&p, p.limbs),
                switching_key_bytes(&p, p.limbs),
            ),
            (
                he_rotate_counts(&p, p.limbs),
                switching_key_bytes(&p, p.limbs),
            ),
            (he_rescale_counts(&p, p.limbs), 0.0),
        ] {
            let mut s_u = TpuSim::new(TpuGeneration::V6e);
            let mut s_f = TpuSim::new(TpuGeneration::V6e);
            let unfused = charge_op_mode(&mut s_u, &p, &counts, key, "u", ExecMode::Unfused);
            let fused = charge_op_mode(&mut s_f, &p, &counts, key, "f", ExecMode::FusedBatch);
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
                let rot = he_rotate_counts(&p, l);
                let dec = he_hoist_decomp_counts(&p, l);
                let hoist = he_hoisted_rotate_counts(&p, l);
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
            }
        }
    }

    #[test]
    fn pod_speedup_is_sublinear() {
        let p = ParamSet::C.params();
        let counts = he_mult_counts(&p, p.limbs);
        let key = switching_key_bytes(&p, p.limbs);
        let mut single = TpuSim::new(TpuGeneration::V6e);
        let one = charge_op(&mut single, &p, &counts, key, "m").latency_s;
        let mut pod = PodSim::new(TpuGeneration::V6e, 8);
        let rep = charge_op_pod(&mut pod, &p, &counts, key, "m", ExecMode::Unfused);
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
            let counts = he_mult_counts(&p, p.limbs);
            lat.push(
                charge_op(&mut sim, &p, &counts, switching_key_bytes(&p, p.limbs), "m").latency_s,
            );
        }
        assert!(lat[0] > lat[2], "v4 {} vs v6e {}", lat[0], lat[2]);
    }
}
