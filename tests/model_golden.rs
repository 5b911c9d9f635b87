//! The modeled numbers, pinned across commits bit for bit. This is
//! their one home: host timings are the repo benchmark's.
//!
//! Every other model test compares two paths *of the same binary*
//! (`cost_graph` ≡ `charge_op_pod`, 1-core pod ≡ lone `TpuSim`, …), so
//! a refactor that moves both sides together passes them all. This
//! suite compares against `f64::to_bits` constants recorded from the
//! commit *before* the simulator's accounting was rewritten (PR 14),
//! which makes "every modeled value is unchanged" a failing test for
//! that rewrite and for every later `costs.rs`/`cross_tpu` refactor.
//!
//! A deliberate model change (a new charge, a recalibrated spec)
//! refreshes the table: run the test, and paste the `GOLDEN` block the
//! failure message prints. Say so in CHANGES.md — these constants are
//! the reproduction's numbers.

use cross_bench::workloads::{
    argmax_head, drain_mix, helr_iteration, helr_params, mnist_network, mnist_params,
    relu_mlp_layer, sgn_workload_params, topk_head,
};
use cross_bench::{pod_for, vm_setups};
use cross_ckks::costs::{backbone_latencies_pod, ExecMode};
use cross_ckks::params::{CkksParams, ParamSet};
use cross_sched::{cost_graph, HeOpKind, OpGraph, PassManager, RequestQueue, Scheduler};
use cross_tpu::{PodSim, TpuGeneration};

const GEN: TpuGeneration = TpuGeneration::V6e;
const CORES: u32 = 8;

/// Recorded on the parent of PR 14 (commit 5eb67e8), except where a
/// comment inside the table says otherwise.
const GOLDEN: &[(&str, u64)] = &[
    ("backbone/HE-Add/latency_s", 0x3edfa3a5aee6a03b), // 7.54338428380496e-6
    ("backbone/HE-Add/amortized_s", 0x3edc28c8da5e9f51), // 6.71370381680871e-6
    ("backbone/HE-Mult/latency_s", 0x3f4801904e0d81e2), // 7.326082814920721e-4
    ("backbone/HE-Mult/amortized_s", 0x3f37fc3adc82f38f), // 3.659862236522976e-4
    ("backbone/Rescale/latency_s", 0x3f170ce74f606edf), // 8.793031506154233e-5
    ("backbone/Rescale/amortized_s", 0x3f14a9a6028173bc), // 7.882190459569579e-5
    ("backbone/Rotate/latency_s", 0x3f4698d5fe049f42), // 6.896061786720658e-4
    ("backbone/Rotate/amortized_s", 0x3f34fb1de4674371), // 3.2014350690894646e-4
    ("bootstrap/critical_s", 0x3fba3a872ef15059),      // 1.0245556732235296e-1
    ("bootstrap/amortized_s", 0x3fa49627c785f724),     // 4.020809469783007e-2
    ("bootstrap/comm_s", 0x3faf291cfc318bb6),          // 6.0860544e-2
    ("helr/before/critical_s", 0x3fabb775ef7edb5d),    // 5.413406895188786e-2
    ("helr/before/amortized_s", 0x3f965bfd5f395ffd),   // 2.183528798772726e-2
    ("helr/before/comm_s", 0x3fa01eb78c59fc26),        // 3.1484351999999924e-2
    ("helr/after/critical_s", 0x3faa25d584015734),     // 5.106990085975696e-2
    ("helr/after/amortized_s", 0x3f93637dc89d646a),    // 1.893421685176514e-2
    ("helr/after/comm_s", 0x3f9fa050ba4f1321),         // 3.0884991999999948e-2
    ("helr/scheduled/wall_s", 0x3f93e0f9e4388c57),     // 1.941290336084153e-2
    ("mnist/before/critical_s", 0x3f921ea1918ebc69),   // 1.7694973477486196e-2
    ("mnist/before/amortized_s", 0x3f7162e214786e59),  // 4.244692921499282e-3
    ("mnist/before/comm_s", 0x3f866144ad47e606),       // 1.0927711999999989e-2
    ("mnist/after/critical_s", 0x3f913da82915bd5f),    // 1.683676481974083e-2
    ("mnist/after/amortized_s", 0x3f6ca377500338f1),   // 3.495915443728064e-3
    ("mnist/after/comm_s", 0x3f86040a9e0b0fc4),        // 1.0749895999999988e-2
    ("mnist/scheduled/wall_s", 0x3f85e6b85429e13b),    // 1.069396979185965e-2
    // Single-op rows, recorded at 0e05a5b (the parent of PR 16, before
    // the operator table replaced the `he_*_counts` builders).
    ("op/HE-Sub/l51/u/critical_s", 0x3edfa3a5aee6a03b), // 7.54338428380496e-6
    ("op/HE-Sub/l51/u/amortized_s", 0x3edc28c8da5e9f51), // 6.71370381680871e-6
    ("op/HE-Sub/l51/u/comm_s", 0x0000000000000000),     // 0e0
    ("op/HE-Sub/l51/f/critical_s", 0x3edfa3a5aee6a03b), // 7.54338428380496e-6
    ("op/HE-Sub/l51/f/amortized_s", 0x3edc28c8da5e9f51), // 6.71370381680871e-6
    ("op/HE-Sub/l51/f/comm_s", 0x0000000000000000),     // 0e0
    ("op/HE-Sub/l2/u/critical_s", 0x3eb61fde0714336e),  // 1.3187218679849968e-6
    ("op/HE-Sub/l2/u/amortized_s", 0x3ed208bb63140c93), // 4.299666714449541e-6
    ("op/HE-Sub/l2/u/comm_s", 0x0000000000000000),      // 0e0
    ("op/HE-Sub/l2/f/critical_s", 0x3eb61fde0714336e),  // 1.3187218679849968e-6
    ("op/HE-Sub/l2/f/amortized_s", 0x3ed208bb63140c93), // 4.299666714449541e-6
    ("op/HE-Sub/l2/f/comm_s", 0x0000000000000000),      // 0e0
    ("op/HE-PMult/l51/u/critical_s", 0x3ee7bb4214dd6e00), // 1.1316050087798422e-5
    ("op/HE-PMult/l51/u/amortized_s", 0x3ee5d6e04be13bbd), // 1.041381835534076e-5
    ("op/HE-PMult/l51/u/comm_s", 0x0000000000000000),   // 0e0
    ("op/HE-PMult/l51/f/critical_s", 0x3ee7bb4214dd6e00), // 1.1316050087798422e-5
    ("op/HE-PMult/l51/f/amortized_s", 0x3ee5d6e04be13bbd), // 1.041381835534076e-5
    ("op/HE-PMult/l51/f/comm_s", 0x0000000000000000),   // 0e0
    ("op/HE-PMult/l2/u/critical_s", 0x3ebafe49de1a6d34), // 1.6089269298306476e-6
    ("op/HE-PMult/l2/u/amortized_s", 0x3ed208bb63140c93), // 4.299666714449541e-6
    ("op/HE-PMult/l2/u/comm_s", 0x0000000000000000),    // 0e0
    ("op/HE-PMult/l2/f/critical_s", 0x3ebafe49de1a6d34), // 1.6089269298306476e-6
    ("op/HE-PMult/l2/f/amortized_s", 0x3ed208bb63140c93), // 4.299666714449541e-6
    ("op/HE-PMult/l2/f/comm_s", 0x0000000000000000),    // 0e0
    ("op/HE-PMultConst/l51/u/critical_s", 0x3ee7bb4214dd6e00), // 1.1316050087798422e-5
    ("op/HE-PMultConst/l51/u/amortized_s", 0x3ee5d6e04be13bbd), // 1.041381835534076e-5
    ("op/HE-PMultConst/l51/u/comm_s", 0x0000000000000000), // 0e0
    ("op/HE-PMultConst/l51/f/critical_s", 0x3ee7bb4214dd6e00), // 1.1316050087798422e-5
    ("op/HE-PMultConst/l51/f/amortized_s", 0x3ee5d6e04be13bbd), // 1.041381835534076e-5
    ("op/HE-PMultConst/l51/f/comm_s", 0x0000000000000000), // 0e0
    ("op/HE-PMultConst/l2/u/critical_s", 0x3ebafe49de1a6d34), // 1.6089269298306476e-6
    ("op/HE-PMultConst/l2/u/amortized_s", 0x3ed208bb63140c93), // 4.299666714449541e-6
    ("op/HE-PMultConst/l2/u/comm_s", 0x0000000000000000), // 0e0
    ("op/HE-PMultConst/l2/f/critical_s", 0x3ebafe49de1a6d34), // 1.6089269298306476e-6
    ("op/HE-PMultConst/l2/f/amortized_s", 0x3ed208bb63140c93), // 4.299666714449541e-6
    ("op/HE-PMultConst/l2/f/comm_s", 0x0000000000000000), // 0e0
    ("op/HE-PAddConst/l51/u/critical_s", 0x3edfa3a5aee6a03b), // 7.54338428380496e-6
    ("op/HE-PAddConst/l51/u/amortized_s", 0x3edc28c8da5e9f51), // 6.71370381680871e-6
    ("op/HE-PAddConst/l51/u/comm_s", 0x0000000000000000), // 0e0
    ("op/HE-PAddConst/l51/f/critical_s", 0x3edfa3a5aee6a03b), // 7.54338428380496e-6
    ("op/HE-PAddConst/l51/f/amortized_s", 0x3edc28c8da5e9f51), // 6.71370381680871e-6
    ("op/HE-PAddConst/l51/f/comm_s", 0x0000000000000000), // 0e0
    ("op/HE-PAddConst/l2/u/critical_s", 0x3eb61fde0714336e), // 1.3187218679849968e-6
    ("op/HE-PAddConst/l2/u/amortized_s", 0x3ed208bb63140c93), // 4.299666714449541e-6
    ("op/HE-PAddConst/l2/u/comm_s", 0x0000000000000000), // 0e0
    ("op/HE-PAddConst/l2/f/critical_s", 0x3eb61fde0714336e), // 1.3187218679849968e-6
    ("op/HE-PAddConst/l2/f/amortized_s", 0x3ed208bb63140c93), // 4.299666714449541e-6
    ("op/HE-PAddConst/l2/f/comm_s", 0x0000000000000000), // 0e0
    ("op/KeySwitch/l51/u/critical_s", 0x3f45a022f6cd20c7), // 6.599589083658091e-4
    ("op/KeySwitch/l51/u/amortized_s", 0x3f33134891530627), // 2.910663764162679e-4
    ("op/KeySwitch/l51/u/comm_s", 0x3f38c946fdb7c8a6),  // 3.78208e-4
    ("op/KeySwitch/l51/f/critical_s", 0x3f43ca696c3b836c), // 6.039633521731486e-4
    ("op/KeySwitch/l51/f/amortized_s", 0x3f2f0559c6619a4c), // 2.366706932576838e-4
    ("op/KeySwitch/l51/f/comm_s", 0x3f38c946fdb7c8a6),  // 3.78208e-4
    ("op/KeySwitch/l2/u/critical_s", 0x3f33691201286bab), // 2.9617967189359923e-4
    ("op/KeySwitch/l2/u/amortized_s", 0x3f1461f68d44b270), // 7.775370915359139e-5
    ("op/KeySwitch/l2/u/comm_s", 0x3f2a9f0a134baea1),   // 2.0310399999999999e-4
    ("op/KeySwitch/l2/f/critical_s", 0x3f325ca7fb1e5ae4), // 2.8018094155283905e-4
    ("op/KeySwitch/l2/f/amortized_s", 0x3f109bac1120760b), // 6.335485184690724e-5
    ("op/KeySwitch/l2/f/comm_s", 0x3f2a9f0a134baea1),   // 2.0310399999999999e-4
    ("op/HoistDecomp/l51/u/critical_s", 0x3f298cbe62d36350), // 1.9492935226741526e-4
    ("op/HoistDecomp/l51/u/amortized_s", 0x3f2155e9e045a5b7), // 1.3226013119131488e-4
    ("op/HoistDecomp/l51/u/comm_s", 0x3f02b3d09649c7b9), // 3.5672e-5
    ("op/HoistDecomp/l51/f/critical_s", 0x3f23e34ea89d08bb), // 1.517327803473629e-4
    ("op/HoistDecomp/l51/f/amortized_s", 0x3f17fa00b624a045), // 9.146336882237631e-5
    ("op/HoistDecomp/l51/f/comm_s", 0x3f02b3d09649c7b9), // 3.5672e-5
    ("op/HoistDecomp/l2/u/critical_s", 0x3f13059954372661), // 7.25626787733357e-5
    ("op/HoistDecomp/l2/u/amortized_s", 0x3f0296da1f8afbf6), // 3.5456210701216505e-5
    ("op/HoistDecomp/l2/u/comm_s", 0x3ee7451ea0b29b25), // 1.1095999999999998e-5
    ("op/HoistDecomp/l2/f/critical_s", 0x3f0f5558e82de162), // 5.976369450072756e-5
    ("op/HoistDecomp/l2/f/amortized_s", 0x3efa108398ab4622), // 2.485705185046293e-5
    ("op/HoistDecomp/l2/f/comm_s", 0x3ee7451ea0b29b25), // 1.1095999999999998e-5
    ("op/HoistedRotate/l51/u/critical_s", 0x3f41a390de65a101), // 5.382974020849142e-4
    ("op/HoistedRotate/l51/u/amortized_s", 0x3f2883c983a51955), // 1.8703303232765292e-4
    ("op/HoistedRotate/l51/u/comm_s", 0x3f372cf5dff42488), // 3.53632e-4
    ("op/HoistedRotate/l51/f/critical_s", 0x3f411d5bdb60989e), // 5.22298671744154e-4
    ("op/HoistedRotate/l51/f/amortized_s", 0x3f26bb7bac93fcd0), // 1.7343411153800678e-4
    ("op/HoistedRotate/l51/f/comm_s", 0x3f372cf5dff42488), // 3.53632e-4
    ("op/HoistedRotate/l2/u/critical_s", 0x3f31a9c38bb156e2), // 2.6951812805485313e-4
    ("op/HoistedRotate/l2/u/amortized_s", 0x3f0834c3e146ab81), // 4.6169498236401346e-5
    ("op/HoistedRotate/l2/u/comm_s", 0x3f2a9f0a134baea1), // 2.0310399999999999e-4
    ("op/HoistedRotate/l2/f/critical_s", 0x3f313e65efad502c), // 2.6311863591854906e-4
    ("op/HoistedRotate/l2/f/amortized_s", 0x3f0636c73c338ba4), // 4.236979978047083e-5
    ("op/HoistedRotate/l2/f/comm_s", 0x3f2a9f0a134baea1), // 2.0310399999999999e-4
    ("op/Rotate/l51/u/critical_s", 0x3f4698d5fe049f4e), // 6.896061786720671e-4
    ("op/Rotate/l51/u/amortized_s", 0x3f34fb1de467435d), // 3.201435069089454e-4
    ("op/Rotate/l51/u/comm_s", 0x3f38c946fdb7c8a6),     // 3.78208e-4
    ("op/Rotate/l51/f/critical_s", 0x3f44c31c737301f4), // 6.336106224794067e-4
    ("op/Rotate/l51/f/amortized_s", 0x3f316a8236450a5c), // 2.657478237503613e-4
    ("op/Rotate/l51/f/comm_s", 0x3f38c946fdb7c8a6),     // 3.78208e-4
    ("op/Rotate/l2/u/critical_s", 0x3f338f54ee936b72),  // 2.984602311479268e-4
    ("op/Rotate/l2/u/amortized_s", 0x3f14ae7c681ab1fc), // 7.889398878075515e-5
    ("op/Rotate/l2/u/comm_s", 0x3f2a9f0a134baea1),      // 2.0310399999999999e-4
    ("op/Rotate/l2/f/critical_s", 0x3f3282eae8895aab),  // 2.8246150080716664e-4
    ("op/Rotate/l2/f/amortized_s", 0x3f10e831ebf67597), // 6.449513147407101e-5
    ("op/Rotate/l2/f/comm_s", 0x3f2a9f0a134baea1),      // 2.0310399999999999e-4
    // Recorded at eae836e, where the legacy bench file held these same
    // values as ns/iter: Tab. VIII and IX at the other VM setups, the
    // serving drain's per-op seconds, and the comparison heads.
    ("backbone/v4-8/HE-Add/latency_s", 0x3ef9acd35ed110b6), // 2.4485683685308074e-5
    ("backbone/v4-8/HE-Add/amortized_s", 0x3ef7d5d8d2cac1b9), // 2.2731151306744464e-5
    ("backbone/v4-8/HE-Mult/latency_s", 0x3f61f05014373138), // 2.189785389168499e-3
    ("backbone/v4-8/HE-Mult/amortized_s", 0x3f533d5090728e6c), // 1.1742865333780562e-3
    ("backbone/v4-8/Rescale/latency_s", 0x3f33c9421da76624), // 3.019129195799017e-4
    ("backbone/v4-8/Rescale/amortized_s", 0x3f31c2d0ca24113d), // 2.7101132776887247e-4
    ("backbone/v4-8/Rotate/latency_s", 0x3f637dee4fb01801), // 2.379384471626445e-3
    ("backbone/v4-8/Rotate/amortized_s", 0x3f561657ac04c446), // 1.3481002971043195e-3
    ("bootstrap/v4-8/critical_s", 0x3fd524b2f2ab4f84),      // 3.303649301353675e-1
    ("bootstrap/v4-8/amortized_s", 0x3fc405f0fe62b6e7),     // 1.5643131657764472e-1
    ("bootstrap/v4-8/comm_s", 0x3fc5d0660554c002),          // 1.7042231808000002e-1
    ("backbone/v5e-4/HE-Add/latency_s", 0x3efd285d33a3781b), // 2.7806923051147772e-5
    ("backbone/v5e-4/HE-Add/amortized_s", 0x3efbd4a77bebb567), // 2.6541405300164157e-5
    ("backbone/v5e-4/HE-Mult/latency_s", 0x3f614ed8572717f3), // 2.1127915763114956e-3
    ("backbone/v5e-4/HE-Mult/amortized_s", 0x3f59738b6a365b19), // 1.5534268830827479e-3
    ("backbone/v5e-4/Rescale/latency_s", 0x3f37f5a74e5908d6), // 3.655942403818618e-4
    ("backbone/v5e-4/Rescale/amortized_s", 0x3f37327e49718423), // 3.5396178413377356e-4
    ("backbone/v5e-4/Rotate/latency_s", 0x3f5fe11fd91383d7), // 1.9457636847663906e-3
    ("backbone/v5e-4/Rotate/amortized_s", 0x3f56e45f69f7def6), // 1.3972217346899774e-3
    ("bootstrap/v5e-4/critical_s", 0x3fd0d90a56d1dc74),     // 2.6324709394925283e-1
    ("bootstrap/v5e-4/amortized_s", 0x3fc5ca36a42a8d48),    // 1.7023356452873828e-1
    ("bootstrap/v5e-4/comm_s", 0x3fbb87278c98f888),         // 1.0753104384e-1
    ("backbone/v5p-8/HE-Add/latency_s", 0x3ee346258b01f919), // 9.190564327573929e-6
    ("backbone/v5p-8/HE-Add/amortized_s", 0x3ee11bd254fd3e47), // 8.158053475120583e-6
    ("backbone/v5p-8/HE-Mult/latency_s", 0x3f51d565fd2b5a86), // 1.088475798203399e-3
    ("backbone/v5p-8/HE-Mult/amortized_s", 0x3f4287276116613a), // 5.654279977305506e-4
    ("backbone/v5p-8/Rescale/latency_s", 0x3f237523aea3a9fb), // 1.48449521766139e-4
    ("backbone/v5p-8/Rescale/amortized_s", 0x3f2154d34ed0eeef), // 1.3222770158615542e-4
    ("backbone/v5p-8/Rotate/latency_s", 0x3f513282ec5bef32), // 1.0496405170092424e-3
    ("backbone/v5p-8/Rotate/amortized_s", 0x3f4116f61b46f265), // 5.215360347886165e-4
    ("bootstrap/v5p-8/critical_s", 0x3fc369a7dbcb0c98),     // 1.5166185600364623e-1
    ("bootstrap/v5p-8/amortized_s", 0x3fb026c187e6d715),    // 6.309136932290145e-2
    ("bootstrap/v5p-8/comm_s", 0x3fb68b91bfedada4),         // 8.806715904000001e-2
    ("backbone/v6e-4/HE-Add/latency_s", 0x3eedf626853ad546), // 1.428676856760992e-5
    ("backbone/v6e-4/HE-Add/amortized_s", 0x3eec28c8da5e9f51), // 1.342740763361742e-5
    ("backbone/v6e-4/HE-Mult/latency_s", 0x3f5052fa9962c6a9), // 9.96346212144431e-4
    ("backbone/v6e-4/HE-Mult/amortized_s", 0x3f47f3d760b29898), // 7.309724473045951e-4
    ("backbone/v6e-4/Rescale/latency_s", 0x3f255fda9cc81c03), // 1.630739556192918e-4
    ("backbone/v6e-4/Rescale/amortized_s", 0x3f24a9a6028173bc), // 1.5764380919139158e-4
    ("backbone/v6e-4/Rotate/latency_s", 0x3f4d7f390fdbe9d0), // 9.00175916938745e-4
    ("backbone/v6e-4/Rotate/amortized_s", 0x3f44f2ba6896e87a), // 6.392870138178929e-4
    ("bootstrap/v6e-4/critical_s", 0x3fbfeb52ac4495a2),     // 1.2468449311980703e-1
    ("bootstrap/v6e-4/amortized_s", 0x3fb488c93a31e62b),    // 8.021218939566015e-2
    ("bootstrap/v6e-4/comm_s", 0x3fa945b937c0e3fb),         // 4.936007314285714e-2
    ("drain/4/fused_per_op_s", 0x3f07842db9f95f41),         // 4.485382600866043e-5
    ("drain/4/naive_per_op_s", 0x3f0f94cba501e9f7),         // 6.023642038229312e-5
    ("drain/16/fused_per_op_s", 0x3efb17950d52ff54),        // 2.5837057212595965e-5
    ("drain/16/naive_per_op_s", 0x3f0f94cba501e9f8),        // 6.023642038229313e-5
    ("drain/64/fused_per_op_s", 0x3ef09d45bf97a8ea),        // 1.5844674612277525e-5
    ("drain/64/naive_per_op_s", 0x3f0f94cba501e9fa),        // 6.023642038229314e-5
    ("argmax4/scheduled/wall_s", 0x3fa00e35c5022e46),       // 3.135841398133414e-2
    ("argmax4/naive/wall_s", 0x3fb19d24c8701114),           // 6.880407231807723e-2
    ("topk6_2/scheduled/wall_s", 0x3fb57f315d73d4f3),       // 8.397205859712979e-2
    ("topk6_2/naive/wall_s", 0x3fc820a8dc84d106),           // 1.8849669234771954e-1
    ("mlp8/scheduled/wall_s", 0x3f9a28982204dc30),          // 2.5545479847291996e-2
    ("mlp8/naive/wall_s", 0x3fae059eae024796),              // 5.863662599689616e-2
];

/// Before/after-optimizer graph cost plus the scheduled wall clock of
/// one recorded program, as the `helr`/`mnist` bins compute them.
fn program(out: &mut Vec<(String, f64)>, name: &str, params: &CkksParams, graph: &OpGraph) {
    let pm = PassManager::standard(GEN, CORES, ExecMode::FusedBatch);
    let optimized = pm.run(graph, params);
    let mut pod = PodSim::new(GEN, CORES);
    for (stage, g) in [("before", graph), ("after", &optimized.graph)] {
        let rep = cost_graph(&mut pod, params, g, ExecMode::FusedBatch);
        out.push((format!("{name}/{stage}/critical_s"), rep.critical_s));
        out.push((format!("{name}/{stage}/amortized_s"), rep.amortized_s));
        out.push((format!("{name}/{stage}/comm_s"), rep.comm_s));
    }
    let schedule = Scheduler::new(GEN, CORES).schedule(&optimized.graph, params);
    out.push((format!("{name}/scheduled/wall_s"), schedule.wall_s()));
}

/// Every pinned value, in table order.
fn modeled() -> Vec<(String, f64)> {
    let mut out = Vec::new();

    // Tab. VIII, v6e-8 Set D: the 7.54 / 733 / 87.9 / 690 µs row.
    let set_d = ParamSet::D.params();
    let mut pod = PodSim::new(GEN, CORES);
    for (op, rep, amortized) in backbone_latencies_pod(&mut pod, &set_d, ExecMode::Unfused) {
        out.push((format!("backbone/{op}/latency_s"), rep.latency_s));
        out.push((format!("backbone/{op}/amortized_s"), amortized));
    }

    let graph = OpGraph::single_op(HeOpKind::Bootstrap, set_d.limbs);
    let mut pod = PodSim::new(GEN, CORES);
    let rep = cost_graph(&mut pod, &set_d, &graph, ExecMode::Unfused);
    out.push(("bootstrap/critical_s".into(), rep.critical_s));
    out.push(("bootstrap/amortized_s".into(), rep.amortized_s));
    out.push(("bootstrap/comm_s".into(), rep.comm_s));

    let params = helr_params();
    program(&mut out, "helr", &params, &helr_iteration(params.limbs));
    let params = mnist_params();
    program(&mut out, "mnist", &params, &mnist_network(params.limbs));

    // One single-op graph per kind the rows above never reach alone,
    // at Set D top level and at level 2 (where a digit is wider than
    // the ciphertext: the `α.min(l)` edge), in both lowerings.
    for kind in [
        HeOpKind::Sub,
        HeOpKind::PlainMult,
        HeOpKind::PlainMultConst { cid: 0 },
        HeOpKind::PlainAddConst { cid: 0 },
        HeOpKind::KeySwitch,
        HeOpKind::HoistDecomp,
        HeOpKind::HoistedRotate { steps: 1 },
        HeOpKind::Rotate { steps: 1 },
    ] {
        for level in [set_d.limbs, 2] {
            for (tag, mode) in [("u", ExecMode::Unfused), ("f", ExecMode::FusedBatch)] {
                let graph = OpGraph::single_op(kind, level);
                let mut pod = PodSim::new(GEN, CORES);
                let rep = cost_graph(&mut pod, &set_d, &graph, mode);
                let key = format!("op/{}/l{level}/{tag}", kind.label());
                out.push((format!("{key}/critical_s"), rep.critical_s));
                out.push((format!("{key}/amortized_s"), rep.amortized_s));
                out.push((format!("{key}/comm_s"), rep.comm_s));
            }
        }
    }

    // Tab. VIII and IX at the other VM setups (v6e-8 is pinned above).
    for (gen, cores, label) in vm_setups() {
        if label == "v6e-8" {
            continue;
        }
        let mut pod = pod_for(gen, cores);
        for (op, rep, amortized) in backbone_latencies_pod(&mut pod, &set_d, ExecMode::Unfused) {
            out.push((format!("backbone/{label}/{op}/latency_s"), rep.latency_s));
            out.push((format!("backbone/{label}/{op}/amortized_s"), amortized));
        }
        let graph = OpGraph::single_op(HeOpKind::Bootstrap, set_d.limbs);
        let rep = cost_graph(&mut pod, &set_d, &graph, ExecMode::Unfused);
        out.push((format!("bootstrap/{label}/critical_s"), rep.critical_s));
        out.push((format!("bootstrap/{label}/amortized_s"), rep.amortized_s));
        out.push((format!("bootstrap/{label}/comm_s"), rep.comm_s));
    }

    // The serving drain of `drain_mix` requests: per-op seconds of
    // the fused schedule and of naive per-op dispatch, with the
    // optimizer on as in serving.
    let set_c = ParamSet::C.params();
    let scheduler = Scheduler::new(GEN, CORES).with_optimize(true);
    for depth in [4, 16, 64] {
        let mut queue = RequestQueue::new();
        for i in 0..depth {
            queue
                .submit_default(drain_mix(i), set_c.limbs)
                .expect("unbounded");
        }
        let dispatch = queue.drain(&scheduler, &set_c, depth);
        let naive = scheduler.naive_wall_s(&dispatch.graph, &set_c) / depth as f64;
        out.push((
            format!("drain/{depth}/fused_per_op_s"),
            dispatch.schedule.per_op_s(),
        ));
        out.push((format!("drain/{depth}/naive_per_op_s"), naive));
    }

    // The recorded comparison heads: scheduled against naive dispatch.
    let params = sgn_workload_params();
    let scheduler = Scheduler::new(GEN, CORES);
    for (name, graph) in [
        ("argmax4", argmax_head(params.limbs, 4)),
        ("topk6_2", topk_head(params.limbs, 6, 2)),
        ("mlp8", relu_mlp_layer(params.limbs, 8)),
    ] {
        let wall = scheduler.schedule(&graph, &params).wall_s();
        out.push((format!("{name}/scheduled/wall_s"), wall));
        out.push((
            format!("{name}/naive/wall_s"),
            scheduler.naive_wall_s(&graph, &params),
        ));
    }
    out
}

#[test]
fn modeled_values_match_the_recorded_bits() {
    let got = modeled();
    let same = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((k, v), (gk, bits))| k == gk && v.to_bits() == *bits);
    let table = || -> String {
        got.iter()
            .map(|(k, v)| format!("    (\"{k}\", {:#018x}), // {v:e}\n", v.to_bits()))
            .collect()
    };
    assert!(
        same,
        "modeled values moved; if deliberate, replace GOLDEN with:\n{}",
        table()
    );
}

#[test]
fn the_pinned_backbone_row_is_the_published_one() {
    // Guards the table against being refreshed onto the wrong
    // configuration: these are the figures README/DESIGN quote.
    let us = |key: &str| {
        let bits = GOLDEN.iter().find(|(k, _)| *k == key).expect(key).1;
        f64::from_bits(bits) * 1e6
    };
    for (key, want) in [
        ("backbone/HE-Add/latency_s", 7.54),
        ("backbone/HE-Mult/latency_s", 733.0),
        ("backbone/Rescale/latency_s", 87.9),
        ("backbone/Rotate/latency_s", 690.0),
    ] {
        let got = us(key);
        assert!((got / want - 1.0).abs() < 5e-3, "{key}: {got} µs vs {want}");
    }
}

#[test]
fn the_pinned_pairs_keep_their_order() {
    // The schedule and the optimizer exist to win in the model; these
    // pairs guard a refreshed table against losing that.
    let s = |key: &str| f64::from_bits(GOLDEN.iter().find(|(k, _)| *k == key).expect(key).1);
    for depth in [4, 16, 64] {
        let (fused, naive) = (
            s(&format!("drain/{depth}/fused_per_op_s")),
            s(&format!("drain/{depth}/naive_per_op_s")),
        );
        assert!(
            fused < naive,
            "depth {depth}: fused {fused} vs naive {naive}"
        );
    }
    // The optimizer shortens the critical path and never lengthens the
    // amortized one.
    for name in ["helr", "mnist"] {
        let total = |stage: &str, what: &str| s(&format!("{name}/{stage}/{what}"));
        assert!(
            total("after", "critical_s") < total("before", "critical_s"),
            "{name}"
        );
        assert!(
            total("after", "amortized_s") <= total("before", "amortized_s"),
            "{name}"
        );
    }
    for name in ["argmax4", "topk6_2", "mlp8"] {
        let scheduled = s(&format!("{name}/scheduled/wall_s"));
        let naive = s(&format!("{name}/naive/wall_s"));
        assert!(scheduled < naive, "{name}: {scheduled} vs naive {naive}");
    }
}
