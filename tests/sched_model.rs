//! Scheduler-semantics contracts (ISSUE 4).
//!
//! Four properties keep the op-graph IR honest:
//!
//! 1. **Interpreter exactness** — `cost_graph` on the one-op graph is
//!    *bit-identical* to `costs::charge_op_pod`: the compiler path may
//!    not perturb the numbers the pod-model suite pins.
//! 2. **Replay fidelity** — recorded graphs replayed through the eager
//!    evaluator, and schedules executed through the batched evaluator,
//!    are bit-exact with calling the evaluator by hand.
//! 3. **Merge safety** — batch formation never fuses ops of different
//!    kinds, levels, or rotation steps.
//! 4. **Determinism** — the same graph always produces the same
//!    schedule (batching decisions are pure cost arithmetic), with or
//!    without the ISSUE-6 optimizer pipeline in front — and on flat
//!    drain-formed graphs that pipeline is a structural no-op.

use cross::ckks::costs::{self, ExecMode};
use cross::ckks::params::{CkksParams, ParamSet};
use cross::ckks::{CkksContext, Evaluator};
use cross::sched::testutil::{random_graph, GraphGenConfig};
use cross::sched::{
    cost_graph, execute_schedule, replay, HeOpKind, OpGraph, PassManager, Recorder, ReplayKeys,
    RequestQueue, Scheduler,
};
use cross::tpu::{PodSim, TpuGeneration};
use proptest::prelude::*;

#[test]
fn cost_graph_reproduces_charge_op_pod_bit_for_bit() {
    let params = ParamSet::D.params();
    let l = params.limbs;
    let cases = [
        (HeOpKind::Add, &costs::HE_ADD),
        (HeOpKind::Mult, &costs::HE_MULT),
        (HeOpKind::Rotate { steps: 1 }, &costs::ROTATE),
        (HeOpKind::Rescale, &costs::RESCALE),
        (HeOpKind::KeySwitch, &costs::KEY_SWITCH),
    ];
    for mode in [ExecMode::Unfused, ExecMode::FusedBatch] {
        for (kind, spec) in &cases {
            let mut direct_pod = PodSim::new(TpuGeneration::V6e, 8);
            let bundle = spec.bundle("direct", &params, l, 1);
            let direct = costs::charge_op_pod(&mut direct_pod, &params, &bundle, mode);
            let graph = OpGraph::single_op(*kind, l);
            let mut graph_pod = PodSim::new(TpuGeneration::V6e, 8);
            let rep = cost_graph(&mut graph_pod, &params, &graph, mode);
            // The op node is the last per-node entry; it charged one
            // bundle.
            let node = rep.per_node.last().unwrap();
            assert_eq!(node.reports.len(), 1, "{kind:?}");
            let via_graph = &node.reports[0];
            assert_eq!(
                direct.latency_s.to_bits(),
                via_graph.latency_s.to_bits(),
                "{kind:?} {mode:?}: latency drifted through the graph path"
            );
            assert_eq!(direct.compute_s.to_bits(), via_graph.compute_s.to_bits());
            assert_eq!(direct.hbm_s.to_bits(), via_graph.hbm_s.to_bits());
            assert_eq!(direct.comm_s.to_bits(), via_graph.comm_s.to_bits());
            assert_eq!(direct.breakdown, via_graph.breakdown, "{kind:?} breakdown");
            assert_eq!(rep.critical_s.to_bits(), direct.latency_s.to_bits());
        }
    }
}

#[test]
fn replayed_graph_is_bit_exact_with_eager_evaluator() {
    let ctx = CkksContext::new(CkksParams::toy(), 17);
    let kp = ctx.generate_keys();
    let ev = Evaluator::new(&ctx);
    let rk1 = ctx.generate_rotation_key(&kp.secret, 1);
    let rk2 = ctx.generate_rotation_key(&kp.secret, 2);
    let msgs: Vec<Vec<f64>> = (0..2)
        .map(|b| {
            (0..ctx.slot_count())
                .map(|i| 0.2 + ((i + b) as f64 * 0.19).sin() * 0.3)
                .collect()
        })
        .collect();
    let cts: Vec<_> = msgs.iter().map(|m| ctx.encrypt(m, &kp.public)).collect();
    let top = cts[0].level;

    // Record: a small program exercising every replayable op.
    let mut r = Recorder::new();
    let x = r.input(top);
    let y = r.input(top);
    let s = r.add(x, y);
    let p = r.mult(s, x);
    let rot = r.rotate(p, 1);
    let rot2 = r.rotate(rot, 2);
    let d = r.mod_drop(rot2, rot2.level - 1);
    let q = r.mult(d, d);
    let graph = r.finish();

    let keys = ReplayKeys::new()
        .with_relin(&kp.relin)
        .with_rotation(1, &rk1)
        .with_rotation(2, &rk2);
    let got = replay(&graph, &ev, &keys, &cts);

    // Eager reference.
    let es = ev.add(&cts[0], &cts[1]);
    let ep = ev.mult(&es, &cts[0], &kp.relin);
    let erot = ev.rotate(&ep, 1, &rk1);
    let erot2 = ev.rotate(&erot, 2, &rk2);
    let ed = ev.mod_drop(&erot2, erot2.level - 1);
    let eq = ev.mult(&ed, &ed, &kp.relin);

    let out = got[q.node].as_ref().unwrap();
    assert_eq!(out.c0.limbs(), eq.c0.limbs());
    assert_eq!(out.c1.limbs(), eq.c1.limbs());
    assert_eq!(out.level, eq.level);
    assert_eq!(out.scale, eq.scale);
}

#[test]
fn executed_schedule_is_bit_exact_with_eager_evaluator() {
    let ctx = CkksContext::new(CkksParams::toy(), 23);
    let kp = ctx.generate_keys();
    let ev = Evaluator::new(&ctx);
    let rk = ctx.generate_rotation_key(&kp.secret, 3);
    let msgs: Vec<Vec<f64>> = (0..4)
        .map(|b| {
            (0..ctx.slot_count())
                .map(|i| 0.1 + ((i * (b + 1)) as f64 * 0.07).cos() * 0.4)
                .collect()
        })
        .collect();
    let cts: Vec<_> = msgs.iter().map(|m| ctx.encrypt(m, &kp.public)).collect();
    let top = cts[0].level;

    // Four parallel chains: rotate then square — the rotations fuse
    // into one batch of 4, the mults into another.
    let mut r = Recorder::new();
    let mut outs = Vec::new();
    for _ in 0..4 {
        let x = r.input(top);
        let rot = r.rotate(x, 3);
        outs.push(r.mult(rot, rot));
    }
    let graph = r.finish();

    let scheduler = Scheduler::new(TpuGeneration::V6e, 4);
    let params = ctx.params();
    let schedule = scheduler.schedule(&graph, params);
    // The 4 rotations and 4 mults each formed one fused batch.
    assert!(schedule.batches.iter().any(|b| b.ops == 4));

    let keys = ReplayKeys::new()
        .with_relin(&kp.relin)
        .with_rotation(3, &rk);
    let got = execute_schedule(&graph, &schedule, &ev, &keys, &cts);
    let replayed = replay(&graph, &ev, &keys, &cts);

    for (i, out) in outs.iter().enumerate() {
        let erot = ev.rotate(&cts[i], 3, &rk);
        let want = ev.mult(&erot, &erot, &kp.relin);
        for results in [&got, &replayed] {
            let have = results[out.node].as_ref().unwrap();
            assert_eq!(have.c0.limbs(), want.c0.limbs(), "chain {i}");
            assert_eq!(have.c1.limbs(), want.c1.limbs(), "chain {i}");
            assert_eq!(have.scale, want.scale, "chain {i}");
        }
    }
}

#[test]
fn scheduling_is_deterministic_across_runs() {
    let params = ParamSet::C.params();
    let build = || {
        let mut q = RequestQueue::new();
        for i in 0..24 {
            match i % 3 {
                0 => q
                    .submit_default(HeOpKind::Rotate { steps: 1 + i % 2 }, params.limbs)
                    .unwrap(),
                1 => q.submit_default(HeOpKind::Mult, params.limbs).unwrap(),
                _ => q.submit_default(HeOpKind::Add, params.limbs).unwrap(),
            };
        }
        q
    };
    let scheduler = Scheduler::new(TpuGeneration::V6e, 8);
    let d1 = build().drain(&scheduler, &params, 24);
    let d2 = build().drain(&scheduler, &params, 24);
    assert_eq!(d1.graph, d2.graph);
    assert_eq!(d1.schedule, d2.schedule);
    assert_eq!(
        d1.schedule.wall_s().to_bits(),
        d2.schedule.wall_s().to_bits()
    );
}

#[test]
fn scheduling_an_optimized_graph_is_deterministic() {
    // ISSUE 6 regression pin: the optimizer adds no nondeterminism
    // anywhere on the path — same random graph, same rewrite, same
    // schedule, bit-identical wall clock, across independent runs.
    let params = ParamSet::A.params();
    let cfg = GraphGenConfig::cost_only(params.limbs, 60);
    let pm = PassManager::standard(TpuGeneration::V6e, 8, ExecMode::FusedBatch);
    let scheduler = Scheduler::new(TpuGeneration::V6e, 8);
    let run = || {
        let rw = pm.run(&random_graph(11, &cfg), &params);
        let schedule = scheduler.schedule(&rw.graph, &params);
        (rw, schedule)
    };
    let (rw1, s1) = run();
    let (rw2, s2) = run();
    assert_eq!(rw1.graph, rw2.graph);
    assert_eq!(rw1.remap, rw2.remap);
    assert_eq!(s1, s2);
    assert_eq!(s1.wall_s().to_bits(), s2.wall_s().to_bits());
}

#[test]
fn optimized_drain_is_deterministic_and_a_noop_on_flat_queues() {
    // Drain-formed graphs give every request fresh Input nodes, so
    // nothing duplicates, nothing fans out, and every op is a sink:
    // the standard pipeline is a structural no-op there, which is why
    // a drain never runs it. One admitted request is the exception: a
    // `ModDrop` whose `to_level` equals its operand's level. Waterline
    // removes that identity drop, but the value is unchanged; this
    // queue holds none.
    let params = ParamSet::C.params();
    let build = || {
        let mut q = RequestQueue::new();
        for i in 0..24 {
            match i % 3 {
                0 => q
                    .submit_default(HeOpKind::Rotate { steps: 1 + i % 2 }, params.limbs)
                    .unwrap(),
                1 => q.submit_default(HeOpKind::Mult, params.limbs).unwrap(),
                _ => q.submit_default(HeOpKind::Add, params.limbs).unwrap(),
            };
        }
        q
    };
    let scheduler = Scheduler::new(TpuGeneration::V6e, 8);
    let d1 = build().drain(&scheduler, &params, 24);
    let d2 = build().drain(&scheduler, &params, 24);
    assert_eq!(d1.graph, d2.graph);
    assert_eq!(d1.schedule, d2.schedule);
    let pm = PassManager::standard(TpuGeneration::V6e, 8, ExecMode::FusedBatch);
    let rw = pm.run(&d1.graph, &params);
    assert_eq!(
        rw.graph, d1.graph,
        "flat drain graphs have nothing to optimize"
    );
    assert_eq!(rw.remap, (0..d1.graph.len()).collect::<Vec<_>>());
}

#[test]
fn fused_batches_beat_naive_per_op_scheduling() {
    // The acceptance claim: amortized per-op latency of the formed
    // batches beats dispatching every op alone, on the same pod.
    let params = ParamSet::C.params();
    let mut q = RequestQueue::new();
    for _ in 0..16 {
        q.submit_default(HeOpKind::Rotate { steps: 1 }, params.limbs)
            .unwrap();
    }
    for mode in [ExecMode::Unfused, ExecMode::FusedBatch] {
        let scheduler = Scheduler::new(TpuGeneration::V6e, 8).with_mode(mode);
        let mut queue = q.clone();
        let d = queue.drain(&scheduler, &params, 16);
        let naive = scheduler.naive_wall_s(&d.graph, &params);
        assert!(
            d.schedule.wall_s() < naive,
            "{mode:?}: scheduled {} vs naive {}",
            d.schedule.wall_s(),
            naive
        );
        assert!(d.schedule.per_op_s() < naive / 16.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batch formation never merges ops of different kinds, levels, or
    /// rotation steps, never loses or duplicates an op, and keeps
    /// every group within the fusion cap.
    #[test]
    fn prop_batches_are_homogeneous_and_complete(
        ops in proptest::collection::vec((0u8..4, 2usize..8, 1usize..4), 1..40),
        max_fuse in 1usize..10,
    ) {
        let params = ParamSet::A.params();
        let mut g = OpGraph::new();
        for &(kind_sel, level, steps) in &ops {
            let kind = match kind_sel {
                0 => HeOpKind::Add,
                1 => HeOpKind::Mult,
                2 => HeOpKind::Rotate { steps },
                _ => HeOpKind::Rescale,
            };
            let ins: Vec<_> = (0..kind.arity()).map(|_| g.input(level)).collect();
            g.add_op(kind, level, 1, &ins);
        }
        let scheduler = Scheduler::new(TpuGeneration::V5e, 4).with_max_fuse(max_fuse);
        let schedule = scheduler.schedule(&g, &params);

        let mut seen = std::collections::BTreeSet::new();
        for batch in &schedule.batches {
            prop_assert!(batch.ops <= max_fuse, "fusion cap violated");
            for &id in &batch.nodes {
                let node = g.node(id);
                prop_assert_eq!(node.kind, batch.kind, "kind mismatch in batch");
                prop_assert_eq!(node.level, batch.level, "level mismatch in batch");
                prop_assert!(seen.insert(id), "op scheduled twice");
            }
        }
        prop_assert_eq!(seen.len(), ops.len(), "ops lost by the scheduler");
    }

    /// The payload queue only routes: whatever the tenants, weights
    /// and window sizes, every payload comes out of `pop_fair` exactly
    /// once, on the ticket it went in with, FIFO within its tenant —
    /// which is what lets a serving loop keep a ticket's whole state in
    /// the queued request instead of in tables beside the queue.
    #[test]
    fn prop_payloads_ride_their_tickets_through_pop_fair(
        tenants in proptest::collection::vec(0u64..4, 1..60),
        weights in proptest::collection::vec(1u64..5, 4),
        windows in proptest::collection::vec(1usize..9, 1..8),
    ) {
        let mut q: RequestQueue<usize> = RequestQueue::new();
        for (tenant, &weight) in weights.iter().enumerate() {
            q.set_weight(tenant as u64, weight);
        }
        // The payload is the submission's index.
        let tickets: Vec<u64> = tenants
            .iter()
            .enumerate()
            .map(|(i, &tenant)| q.submit(tenant, HeOpKind::Add, 4, i).unwrap())
            .collect();

        let mut popped = Vec::new();
        for &max in windows.iter().cycle() {
            if q.is_empty() {
                break;
            }
            let window = q.pop_fair(max);
            prop_assert!(!window.is_empty() && window.len() <= max, "work-conserving, capped");
            popped.extend(window);
        }
        prop_assert_eq!(popped.len(), tenants.len(), "payload lost or duplicated");
        let mut last_of = std::collections::BTreeMap::new();
        for req in &popped {
            prop_assert_eq!(req.ticket, tickets[req.payload], "payload left its ticket");
            prop_assert_eq!(req.tenant, tenants[req.payload]);
            if let Some(prev) = last_of.insert(req.tenant, req.payload) {
                prop_assert!(prev < req.payload, "tenant {} popped out of order", req.tenant);
            }
        }
    }
}
