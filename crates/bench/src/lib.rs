//! # cross-bench
//!
//! The harness that regenerates every table and figure of the CROSS
//! evaluation (§V). Each binary prints the paper's published values
//! next to this reproduction's simulated measurements, so drift in
//! either direction is visible at a glance.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table5`  | Tab. V — BAT vs sparse baseline ModMatMul |
//! | `table6`  | Tab. VI — BConv with/without BAT |
//! | `table7`  | Tab. VII + Fig. 11a — NTT throughput |
//! | `table8`  | Tab. VIII — HE-operator latency & energy efficiency |
//! | `table9`  | Tab. IX — packed bootstrapping |
//! | `table10` | Tab. X — radix-2 CT vs MAT NTT |
//! | `fig5`    | Fig. 5 — device-efficiency scatter |
//! | `fig11b`  | Fig. 11b — batch-size ablation |
//! | `fig12`   | Fig. 12 — HE-Mult/Rotate latency breakdown |
//! | `fig13`   | Fig. 13 — modular-reduction ablation |
//! | `fig14`   | Fig. 14 — OpenFHE-style CPU kernel profile |
//! | `mnist`   | §V-D — encrypted MNIST CNN estimate |
//! | `helr`    | §V-D — encrypted logistic regression estimate |
//! | `all`     | everything above in sequence |

use cross_tpu::{Category, PodSim, TpuGeneration};

pub mod workloads;

/// Prints a section banner.
pub fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Outcome of one [`serve_smoke`] run.
#[derive(Debug, Clone, Copy)]
pub struct ServeSmoke {
    /// Requests completed (all of them, or the run panicked).
    pub requests: usize,
    /// Wall-clock requests per second through the loop.
    pub requests_per_sec: f64,
    /// Mean ops per fused batch across the run.
    pub occupancy: f64,
}

/// Drives the `cross_sched::serve` loop end to end with real (toy
/// parameter) ciphertexts: `clients` client threads each submit
/// `per_client` requests — a serving-shaped rotate/square/add mix —
/// wait on every completion, and fetch the result ciphertexts back
/// out of the store. Shared by the `helr` and `mnist` bins' `--serve`
/// mode.
///
/// Functional execution forces toy parameters (the workload bins'
/// HELR/MNIST-scale parameter sets are cost-model-only); the
/// *modeled* pod cost each completion carries still reflects `gen` ×
/// `cores`.
pub fn serve_smoke(
    gen: TpuGeneration,
    cores: u32,
    workers: usize,
    clients: usize,
    per_client: usize,
) -> ServeSmoke {
    use cross_ckks::{CkksContext, CkksParams};
    use cross_sched::serve::{self, ServeConfig, ServeKeys};

    let ctx = CkksContext::new(CkksParams::toy(), 97);
    let kp = ctx.generate_keys();
    let keys = ServeKeys::new()
        .with_relin(kp.relin.clone())
        .with_rotation(1, ctx.generate_rotation_key(&kp.secret, 1));
    let config = ServeConfig::new(gen, cores).with_workers(workers);

    let start = std::time::Instant::now();
    let stats = serve::run(&ctx, &keys, &config, |session| {
        std::thread::scope(|s| {
            for c in 0..clients {
                let (ctx, kp) = (&ctx, &kp);
                s.spawn(move || {
                    let msg: Vec<f64> = (0..ctx.slot_count())
                        .map(|i| 0.2 + ((i + c) as f64 * 0.13).sin() * 0.25)
                        .collect();
                    let x = session.insert(ctx.encrypt(&msg, &kp.public));
                    for i in 0..per_client {
                        let completion = match i % 3 {
                            0 => session.rotate(x, 1),
                            1 => session.mult(x, x),
                            _ => session.add(x, x),
                        }
                        .expect("loop accepts while clients live");
                        let done = completion.wait().expect("valid requests complete");
                        // Claim the response so the store stays bounded.
                        let _ct = session.take(done.id).expect("result stored");
                    }
                });
            }
        });
        session.stats()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let requests = clients * per_client;
    assert_eq!(stats.ops as usize, requests, "every request was scheduled");
    ServeSmoke {
        requests,
        requests_per_sec: requests as f64 / elapsed,
        occupancy: stats.occupancy(),
    }
}

/// Prints one [`serve_smoke`] run in the shape the workload bins and
/// CI logs share.
pub fn print_serve_smoke(label: &str, workers: usize, clients: usize, smoke: &ServeSmoke) {
    println!(
        "{label}: {} requests over {clients} client thread(s), {workers} worker(s): \
         {:.0} req/s, mean batch occupancy {:.2} ops",
        smoke.requests, smoke.requests_per_sec, smoke.occupancy
    );
}

/// Outcome of one [`serve_tenants_smoke`] run.
#[derive(Debug, Clone, Copy)]
pub struct ServeTenantsSmoke {
    /// Tenants served (each with its own keyset and session).
    pub tenants: usize,
    /// Requests completed across all tenants (Zipf-skewed shares).
    pub requests: usize,
    /// Wall-clock requests per second through the loop.
    pub requests_per_sec: f64,
    /// Mean ops per fused batch; batches never mix tenants.
    pub occupancy: f64,
    /// Median submit→completion latency in seconds.
    pub p50_s: f64,
    /// 99th-percentile submit→completion latency in seconds.
    pub p99_s: f64,
    /// Switching-key residency misses (each billed a modeled
    /// re-admission; the smoke's key-cache budget forces thrash).
    pub key_misses: u64,
    /// Keys evicted from the modeled residency budget.
    pub key_evictions: u64,
    /// Tickets that failed — zero on a healthy soak.
    pub failed: u64,
}

/// Drives the multi-tenant `cross_sched::serve_tenants` loop with
/// real (toy-parameter) ciphertexts under skewed traffic: `tenants`
/// tenants get Zipf request shares summing to (about) `total`, each
/// runs its own client thread submitting its deterministic
/// `cross_sched::testutil::tenant_trace` op mix over its pinned base
/// input, waits on every completion, and claims every result. The
/// key-cache budget is set well below the tenants' combined key
/// bytes, so switching keys thrash in and out of modeled residency —
/// the billed re-admissions show up in `modeled_wall_s`, never in the
/// results. Run by `helr --serve-tenants`.
pub fn serve_tenants_smoke(
    gen: TpuGeneration,
    cores: u32,
    workers: usize,
    tenants: usize,
    total: usize,
) -> ServeTenantsSmoke {
    use cross_ckks::{CkksContext, CkksParams};
    use cross_sched::serve::{ServeConfig, ServeKeys};
    use cross_sched::testutil::{
        tenant_trace, trace_rotation_steps, zipf_shares, ChainOp, TrafficConfig,
    };
    use cross_sched::{serve_tenants, KeyRef, TenantId, TenantSpec};
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    use std::time::Instant;

    let ctx = CkksContext::new(CkksParams::toy(), 97);
    let params = *ctx.params();
    let ids: Vec<TenantId> = (1..=tenants as u64).collect();

    // Deterministic skewed traffic: tenant 1 dominates, the tail
    // trickles; each tenant's ops run over its own base input (top
    // level), so the whole mix is valid by construction.
    let base_scale = params.scale();
    let moduli: Vec<f64> = ctx.q_moduli().iter().map(|&q| q as f64).collect();
    let cfg = TrafficConfig::new(params.limbs, moduli, base_scale);
    let trace = tenant_trace(7, &zipf_shares(&ids, total), &cfg);
    let steps = trace_rotation_steps(&trace);
    let mut per_tenant: BTreeMap<TenantId, Vec<ChainOp>> = BTreeMap::new();
    for &(t, op) in &trace {
        per_tenant.entry(t).or_default().push(op);
    }

    // Per-tenant key material: own keypair, relin + every rotation
    // step the trace uses.
    let keyed: Vec<_> = ids
        .iter()
        .map(|&t| {
            let kp = ctx.generate_keys();
            let mut keys = ServeKeys::new().with_relin(kp.relin.clone());
            for &s in &steps {
                keys = keys.with_rotation(s, ctx.generate_rotation_key(&kp.secret, s));
            }
            (t, kp, keys)
        })
        .collect();
    // Size the residency budget below the combined key bytes so the
    // cache must evict: roughly `tenants`-ish relin-equivalents for
    // `tenants × (1 relin + |steps| rotation)` keys.
    let relin_bytes = keyed[0].2.key_bytes(KeyRef::Relin).expect("relin set");
    let budget = relin_bytes * (tenants as f64).max(1.0);
    let specs: Vec<TenantSpec> = keyed
        .iter()
        .map(|(t, _, keys)| TenantSpec::new(*t, keys.clone()))
        .collect();

    let config = ServeConfig::new(gen, cores)
        .with_workers(workers)
        .with_batch_window(std::time::Duration::from_millis(2))
        .with_key_cache_bytes(budget);

    let latencies = Mutex::new(Vec::with_capacity(trace.len()));
    let start = Instant::now();
    let stats = serve_tenants(&ctx, specs, &config, |server| {
        std::thread::scope(|s| {
            for (t, kp, _) in &keyed {
                let session = server.session(*t);
                let ops = &per_tenant[t];
                let (ctx, latencies) = (&ctx, &latencies);
                s.spawn(move || {
                    let msg: Vec<f64> = (0..ctx.slot_count())
                        .map(|i| 0.2 + ((i as u64 + t) as f64 * 0.13).sin() * 0.25)
                        .collect();
                    let x = session.insert(ctx.encrypt(&msg, &kp.public));
                    // Keep the tenant's whole share in flight, then
                    // collect: submit→completion spans queueing, the
                    // micro-batch window, and execution.
                    let pending: Vec<_> = ops
                        .iter()
                        .map(|&op| {
                            let t0 = Instant::now();
                            let completion = match op {
                                ChainOp::Add => session.add(x, x),
                                ChainOp::Mult => session.mult(x, x),
                                ChainOp::Rotate { steps } => session.rotate(x, steps),
                                ChainOp::Rescale => session.rescale(x),
                            }
                            .expect("loop accepts while clients live");
                            (t0, completion)
                        })
                        .collect();
                    let mut lats = Vec::with_capacity(pending.len());
                    for (t0, completion) in pending {
                        let done = completion.wait().expect("valid requests complete");
                        lats.push(t0.elapsed().as_secs_f64());
                        session.take(done.id).expect("result stored");
                    }
                    session.take(x);
                    latencies.lock().unwrap().extend(lats);
                });
            }
        });
        server.stats()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut lats = latencies.into_inner().unwrap();
    assert_eq!(lats.len(), trace.len(), "every request completed");
    lats.sort_by(|a, b| a.total_cmp(b));
    ServeTenantsSmoke {
        tenants,
        requests: lats.len(),
        requests_per_sec: lats.len() as f64 / elapsed,
        occupancy: stats.occupancy(),
        p50_s: percentile(&lats, 0.50),
        p99_s: percentile(&lats, 0.99),
        key_misses: stats.key_misses,
        key_evictions: stats.key_evictions,
        failed: stats.failed,
    }
}

/// Percentile of an ascending-sorted sample (nearest-rank).
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Prints one [`serve_tenants_smoke`] run in the shape the `helr`
/// bin and CI logs share.
pub fn print_serve_tenants_smoke(label: &str, workers: usize, smoke: &ServeTenantsSmoke) {
    println!(
        "{label}: {} requests over {} tenants, {workers} worker(s): {:.0} req/s, \
         p50 {:.2} ms, p99 {:.2} ms, occupancy {:.2}, \
         {} key misses ({} evictions), {} failed",
        smoke.requests,
        smoke.tenants,
        smoke.requests_per_sec,
        smoke.p50_s * 1e3,
        smoke.p99_s * 1e3,
        smoke.occupancy,
        smoke.key_misses,
        smoke.key_evictions,
        smoke.failed
    );
}

/// Prints a category breakdown as aligned percentages (the Fig. 12 /
/// Tab. IX row shape). Accepts busy seconds or already-normalized
/// fractions — rows are renormalized by their sum either way.
pub fn print_breakdown(breakdown: &[(Category, f64)]) {
    let total: f64 = breakdown.iter().map(|(_, s)| s).sum();
    for (cat, s) in breakdown {
        let share = if total > 0.0 { s / total } else { 0.0 };
        println!("  {:>16}: {:>5.1}%", cat.label(), share * 100.0);
    }
}

/// Aligned printer for the pod-estimate tables every workload bin
/// emits: a label column, a qualifier column (`critical` /
/// `amortized` / a note), one numeric column per operator, and an
/// optional trailing communication share.
///
/// ```
/// use cross_bench::PodTable;
/// let t = PodTable::us_cols(&["HE-Add", "HE-Mult"]);
/// t.header("setup", "column");
/// t.row("v6e-8", "critical", &[3.5, 509.0], Some(0.12));
/// t.row("", "amortized", &[1.5, 209.0], None);
/// ```
pub struct PodTable {
    cols: Vec<String>,
    fmt: fn(f64) -> String,
    label_w: usize,
    comm_col: bool,
}

impl PodTable {
    fn new(cols: &[&str], fmt: fn(f64) -> String) -> Self {
        Self {
            cols: cols.iter().map(|c| c.to_string()).collect(),
            fmt,
            label_w: 8,
            comm_col: true,
        }
    }

    /// Columns formatted as microseconds via [`us`].
    pub fn us_cols(cols: &[&str]) -> Self {
        Self::new(cols, us)
    }

    /// Columns formatted as milliseconds with one decimal.
    pub fn ms_cols(cols: &[&str]) -> Self {
        Self::new(cols, |x| format!("{x:.1}"))
    }

    /// Widens the label column (default 8).
    pub fn label_width(mut self, w: usize) -> Self {
        self.label_w = w;
        self
    }

    /// Drops the trailing comm% column (for tables whose rows never
    /// report a communication share).
    pub fn without_comm(mut self) -> Self {
        self.comm_col = false;
        self
    }

    /// Prints the header row.
    pub fn header(&self, label: &str, qualifier: &str) {
        let mut line = format!("{:>w$} {:>10} |", label, qualifier, w = self.label_w);
        for c in &self.cols {
            line.push_str(&format!(" {c:>9}"));
        }
        if self.comm_col {
            line.push_str(" | comm%");
        }
        println!("{line}");
    }

    /// Prints one row; `comm_frac` fills the trailing column when
    /// present.
    pub fn row(&self, label: &str, qualifier: &str, vals: &[f64], comm_frac: Option<f64>) {
        let mut line = format!("{:>w$} {:>10} |", label, qualifier, w = self.label_w);
        for &v in vals {
            // NaN marks an absent cell (e.g. published rows with no
            // critical-path figure).
            let cell = if v.is_nan() {
                "-".to_string()
            } else {
                (self.fmt)(v)
            };
            line.push_str(&format!(" {cell:>9}"));
        }
        if self.comm_col {
            line.push_str(" |");
            if let Some(f) = comm_frac {
                line.push_str(&format!(" {:>4.1}%", f * 100.0));
            }
        }
        println!("{line}");
    }
}

/// Formats a ratio as `x.xx×`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats microseconds with sensible precision.
pub fn us(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

/// `(generation, tensor cores, column label)` of the TPU-VM setups the
/// evaluation sweeps (paper Tab. IV / VII / VIII).
///
/// Consumers build a [`PodSim`] per setup (see [`pod_for`]) and report
/// its critical-path / amortized estimates, which charge explicit
/// ICI/DCN communication — multi-core latency is **never** obtained by
/// dividing a single-core number by the core count.
pub fn vm_setups() -> Vec<(TpuGeneration, u32, &'static str)> {
    vec![
        (TpuGeneration::V4, 8, "v4-8"),
        (TpuGeneration::V5e, 4, "v5e-4"),
        (TpuGeneration::V5p, 8, "v5p-8"),
        (TpuGeneration::V6e, 4, "v6e-4"),
        (TpuGeneration::V6e, 8, "v6e-8"),
    ]
}

/// The sharded simulator for one [`vm_setups`] row: `cores` tensor
/// cores of `gen` joined by the generation's published ICI/DCN
/// topology.
///
/// ```
/// use cross_bench::pod_for;
/// use cross_tpu::TpuGeneration;
/// let pod = pod_for(TpuGeneration::V6e, 8);
/// assert_eq!(pod.num_cores(), 8);
/// assert_eq!(pod.topology().hosts(), 1); // v6e-8 is a single host
/// ```
pub fn pod_for(gen: TpuGeneration, cores: u32) -> PodSim {
    PodSim::new(gen, cores)
}

/// The Tab. VII NTT-throughput column setups.
pub fn ntt_setups() -> Vec<(TpuGeneration, u32, &'static str)> {
    vec![
        (TpuGeneration::V4, 4, "v4-4"),
        (TpuGeneration::V5e, 4, "v5e-4"),
        (TpuGeneration::V5p, 4, "v5p-4"),
        (TpuGeneration::V6e, 8, "v6e-8"),
    ]
}

/// One Fig. 13a cell: the latency in µs of one kernel multiplying
/// `batch` ciphertexts (`params.limbs` limbs of `params.n`
/// coefficients) element-wise on one v6e tensor core under `strategy`.
pub fn fig13_vecmodmul_us(
    strategy: cross_core::ModRed,
    params: &cross_ckks::CkksParams,
    batch: usize,
) -> f64 {
    let elems = params.n * params.limbs * batch;
    let q = cross_math::primes::ntt_prime(params.log2_q, params.n as u64, 0)
        .expect("the parameter set's chain has a largest prime");
    let mut sim = cross_tpu::TpuSim::new(TpuGeneration::V6e);
    sim.begin_kernel("vecmodmul");
    strategy.charge_vec_mod_mul(&mut sim, elems, q, Category::VecModOps);
    sim.end_kernel().latency_us()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(ratio(1.5), "1.50x");
        assert_eq!(us(3.456), "3.46");
        assert_eq!(us(34.56), "34.6");
        assert_eq!(us(345.6), "346");
    }

    #[test]
    fn pod_table_rows_align() {
        // Purely a smoke test — the table prints, widths don't panic.
        let t = PodTable::us_cols(&["HE-Add", "HE-Mult"]).label_width(10);
        t.header("setup", "column");
        t.row("v6e-8", "critical", &[3.5, 509.0], Some(0.123));
        t.row("", "amortized", &[1.5, 209.0], None);
        let m = PodTable::ms_cols(&["critical", "amortized"]);
        m.header("system", "");
        m.row("v6e-8", "simulated", &[112.0, 21.5], None);
    }

    #[test]
    fn setups_cover_all_generations() {
        let gens: std::collections::HashSet<_> =
            vm_setups().iter().map(|(g, _, _)| format!("{g}")).collect();
        assert_eq!(gens.len(), 4);
    }
}
