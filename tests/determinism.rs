//! Determinism suite for the parallel partition-search engine.
//!
//! The engine's contract is *bit-identical plans*: the concurrent
//! `(S, MB)` sweep with cross-DP memoization must choose exactly the
//! plan of the test-support reference — a one-thread, unpruned scan with
//! fresh memos per candidate — same stage boundaries,
//! same device allocation, same micro-batching, same objective value to
//! the last bit — for every bundled model and cluster size. Anything
//! less would make planner performance a behaviour change.

#[path = "../crates/core/tests/support/reference.rs"]
mod reference;

use rannc::core::{
    atomic_partition, block_partition, form_stage_with, Block, BlockLimits, DpSolution,
    PartitionConfig, Rannc, SearchOptions, VerifyMode,
};
use rannc::graph::TaskGraph;
use rannc::hw::ClusterSpec;
use rannc::models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, BertConfig, GptConfig, MlpConfig, ResNetConfig,
    ResNetDepth,
};
use rannc::profile::{Profiler, ProfilerOptions};
use reference::form_stage_reference;

fn bundled_models() -> Vec<TaskGraph> {
    vec![
        mlp_graph(&MlpConfig::deep(128, 128, 10, 10)),
        bert_graph(&BertConfig::tiny()),
        gpt_graph(&GptConfig::tiny()),
        resnet_graph(&ResNetConfig::tiny()),
    ]
}

fn prep<'g>(g: &'g TaskGraph, cluster: &ClusterSpec) -> (Profiler<'g>, Vec<Block>) {
    let profiler = Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32());
    let atomic = atomic_partition(g);
    let blocks = block_partition(
        g,
        &profiler,
        &atomic,
        BlockLimits {
            k: 8,
            mem_limit: cluster.device.memory_bytes,
            profile_batch: 1,
        },
    );
    (profiler, blocks)
}

/// Field-by-field equality, with objective values compared by bit
/// pattern — `==` on floats would let `-0.0 == 0.0` or hide NaN drift.
fn assert_identical(seq: &Option<DpSolution>, par: &Option<DpSolution>, label: &str) {
    match (seq, par) {
        (None, None) => {}
        (Some(s), Some(p)) => {
            assert_eq!(
                s.value.to_bits(),
                p.value.to_bits(),
                "{label}: objective value differs"
            );
            assert_eq!(s.microbatches, p.microbatches, "{label}: MB differs");
            assert_eq!(
                s.replica_factor, p.replica_factor,
                "{label}: replica factor differs"
            );
            assert_eq!(
                s.stages.len(),
                p.stages.len(),
                "{label}: stage count differs"
            );
            for (i, (a, b)) in s.stages.iter().zip(&p.stages).enumerate() {
                assert_eq!(
                    a.block_range, b.block_range,
                    "{label}: stage {i} block range differs"
                );
                assert_eq!(a.devices, b.devices, "{label}: stage {i} devices differ");
                assert_eq!(
                    a.tensor_parallel, b.tensor_parallel,
                    "{label}: stage {i} tensor-parallel degree differs"
                );
                assert_eq!(
                    a.micro_batch, b.micro_batch,
                    "{label}: stage {i} micro-batch differs"
                );
                assert_eq!(a.set, b.set, "{label}: stage {i} task set differs");
                assert_eq!(
                    a.fwd_time.to_bits(),
                    b.fwd_time.to_bits(),
                    "{label}: stage {i} fwd time differs"
                );
                assert_eq!(
                    a.bwd_time.to_bits(),
                    b.bwd_time.to_bits(),
                    "{label}: stage {i} bwd time differs"
                );
            }
        }
        _ => panic!("{label}: one side feasible, the other not"),
    }
}

/// Every bundled model, 16 and 32 devices: the parallel engine's plan is
/// bit-identical to the reference scan's.
#[test]
fn parallel_engine_matches_sequential_plans() {
    for nodes in [2usize, 4] {
        let cluster = ClusterSpec::v100_cluster(nodes);
        for g in bundled_models() {
            let label = format!("{} @ {} devices", g.name, cluster.total_devices());
            let (profiler, blocks) = prep(&g, &cluster);
            let seq = form_stage_reference(&g, &profiler, &blocks, &cluster, 64);
            let opts = SearchOptions {
                threads: 4,
                tp_max: 1,
            };
            let (par, stats) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
            assert_identical(&seq, &par, &label);
            assert!(seq.is_some(), "{label}: expected feasible");
            assert!(
                stats.stage_cache.hits > 0,
                "{label}: stage-cost memo never hit"
            );
        }
    }
}

/// Oversubscribed thread counts (more workers than candidates or cores)
/// must not change the plan either.
#[test]
fn thread_count_does_not_change_the_plan() {
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(2);
    let (profiler, blocks) = prep(&g, &cluster);
    let reference = form_stage_reference(&g, &profiler, &blocks, &cluster, 64);
    for threads in [2usize, 3, 8, 32] {
        let opts = SearchOptions { threads, tp_max: 1 };
        let (sol, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
        assert_identical(&reference, &sol, &format!("threads={threads}"));
    }
}

/// The engine at one thread (memo reuse and pruning, no concurrency) is
/// also plan-preserving — separates memo effects from scheduling effects
/// if this suite ever fails.
#[test]
fn one_thread_engine_matches_reference() {
    for g in bundled_models() {
        let cluster = ClusterSpec::v100_cluster(2);
        let (profiler, blocks) = prep(&g, &cluster);
        let seq = form_stage_reference(&g, &profiler, &blocks, &cluster, 64);
        let opts = SearchOptions {
            threads: 1,
            tp_max: 1,
        };
        let (cached, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
        assert_identical(&seq, &cached, &g.name.clone());
    }
}

/// The third search axis: with `tp_max = 4` the concurrent `(S, MB, T)`
/// sweep is still deterministic — 2, 4 and 8 worker threads all return
/// the single-threaded engine's plan bit for bit, tensor-parallel
/// degrees included.
#[test]
fn three_axis_sweep_is_thread_deterministic() {
    for g in bundled_models() {
        let cluster = ClusterSpec::v100_cluster(2);
        let (profiler, blocks) = prep(&g, &cluster);
        let reference = form_stage_with(
            &g,
            &profiler,
            &blocks,
            &cluster,
            64,
            &SearchOptions {
                threads: 1,
                tp_max: 4,
            },
        )
        .0;
        assert!(reference.is_some(), "{}: expected feasible 3D plan", g.name);
        for threads in [2usize, 4, 8] {
            let opts = SearchOptions { threads, tp_max: 4 };
            let (sol, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
            assert_identical(
                &reference,
                &sol,
                &format!("{} tp_max=4 threads={threads}", g.name),
            );
        }
    }
}

/// Every tensor-parallel degree a plan chooses is one the sweep was
/// allowed to try: `1 <= T <= tp_max` and `T <= devices`. The second
/// bound is checked with `tp_max` (32) above the size of the cluster (8).
#[test]
fn chosen_tp_degrees_stay_within_search_bounds() {
    for (nodes, tp_max) in [(2usize, 4usize), (1, 32)] {
        let cluster = ClusterSpec::v100_cluster(nodes);
        let devices = cluster.total_devices();
        for g in bundled_models() {
            let (profiler, blocks) = prep(&g, &cluster);
            let opts = SearchOptions { threads: 1, tp_max };
            let (sol, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
            let sol = sol.unwrap_or_else(|| panic!("{}: expected feasible 3D plan", g.name));
            for st in &sol.stages {
                assert!(
                    (1..=tp_max).contains(&st.tensor_parallel) && st.tensor_parallel <= devices,
                    "{}: stage degree T = {} outside 1..={tp_max} or above {devices} devices",
                    g.name,
                    st.tensor_parallel
                );
            }
        }
    }
}

/// The quick-grid BERT case (bert-4l h256, 16 devices) with `tp_max = 4`:
/// four workers return the one-worker plan bit for bit, with one degree
/// per stage, each within `1..=4`.
#[test]
fn quick_bert_with_tp_is_thread_deterministic() {
    let g = bert_graph(&BertConfig::enlarged(256, 4));
    let cluster = ClusterSpec::v100_cluster(2);
    let (profiler, blocks) = prep(&g, &cluster);
    let run = |threads| {
        let opts = SearchOptions { threads, tp_max: 4 };
        form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts).0
    };
    let one = run(1);
    assert_identical(&one, &run(4), "bert-4l tp_max=4 threads=4");
    let sol = one.expect("bert-4l: expected feasible 3D plan");
    assert!(!sol.stages.is_empty());
    assert!(
        sol.stages
            .iter()
            .all(|st| (1..=4).contains(&st.tensor_parallel)),
        "{:?}",
        sol.stages
            .iter()
            .map(|st| st.tensor_parallel)
            .collect::<Vec<_>>()
    );
}

/// The quick grid: mlp-12l and bert-4l h256, planned at 16 devices.
fn quick_grid() -> Vec<TaskGraph> {
    vec![
        mlp_graph(&MlpConfig::deep(128, 128, 12, 10)),
        bert_graph(&BertConfig::enlarged(256, 4)),
    ]
}

/// The profiler memo is claim-once: a key missed by several sweep
/// workers at once is computed by one of them, so every miss inserts
/// exactly one entry at any thread count. Which keys a search asks for
/// is schedule-dependent on a uniform fleet (the racy dominance-pruning
/// incumbent decides which DPs run), so the entry counts are compared
/// across thread counts on a fleet with one slowed device, where the
/// search runs every DP and asks for the same keys at 1, 2 and 4 threads.
#[test]
fn profiler_memo_is_claim_once_at_every_thread_count() {
    let uniform = ClusterSpec::v100_cluster(2);
    // a heterogeneous fleet turns the dominance pruning off
    let mixed = ClusterSpec::v100_cluster(2).with_degraded_device(uniform.rank(3), 0.5);
    for g in quick_grid() {
        let (_, blocks) = prep(&g, &uniform);
        for (cluster, fleet, unpruned) in [(&uniform, "uniform", false), (&mixed, "mixed", true)] {
            let entries = [1, 2, 4].map(|threads| {
                let fresh = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
                let opts = SearchOptions { threads, tp_max: 1 };
                let (sol, _) = form_stage_with(&g, &fresh, &blocks, cluster, 64, &opts);
                assert!(sol.is_some(), "{} ({fleet}): expected feasible", g.name);
                let stats = fresh.cache_stats();
                assert_eq!(
                    stats.misses as usize,
                    stats.entries(),
                    "{} ({fleet}) at {threads} thread(s): a key was computed twice",
                    g.name
                );
                stats.entries()
            });
            if unpruned {
                assert_eq!(
                    entries, [entries[0]; 3],
                    "{}: entries at 1/2/4 threads",
                    g.name
                );
            }
        }
    }
}

/// The profiler's two-layer memo (batch-independent set stats plus
/// per-batch timings) makes checkpoint and in-flight variants of a stage
/// hit: a search on a fresh cost model over the quick grid answers at
/// least 60% of its profiler lookups from the memo, at four workers as
/// at one, since the claim-once memo counts one miss per key.
#[test]
fn fresh_search_hits_the_profiler_memo() {
    const HIT_RATE_FLOOR: f64 = 0.6;
    let cluster = ClusterSpec::v100_cluster(2);
    for g in quick_grid() {
        let (_, blocks) = prep(&g, &cluster);
        let fresh = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
        let opts = SearchOptions {
            threads: 4,
            tp_max: 1,
        };
        let (sol, _) = form_stage_with(&g, &fresh, &blocks, &cluster, 64, &opts);
        assert!(sol.is_some(), "{}: expected feasible", g.name);
        let rate = fresh.cache_stats().hit_rate();
        assert!(
            rate >= HIT_RATE_FLOOR,
            "{}: profiler hit rate {:.1}% is below the {:.0}% floor",
            g.name,
            rate * 100.0,
            HIT_RATE_FLOOR * 100.0
        );
    }
}

/// Passing `tp_max = 1` explicitly is the historical 2D search: the
/// engine's plan still matches the reference scan, so the third axis is
/// strictly opt-in.
#[test]
fn tp_max_one_reproduces_the_sequential_scan() {
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(2);
    let (profiler, blocks) = prep(&g, &cluster);
    let seq = form_stage_reference(&g, &profiler, &blocks, &cluster, 64);
    let opts = SearchOptions {
        threads: 4,
        tp_max: 1,
    };
    let (par, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
    assert_identical(&seq, &par, "tp_max=1");
    assert!(
        par.iter()
            .flat_map(|s| &s.stages)
            .all(|st| st.tensor_parallel == 1),
        "tp_max=1 must never split a stage"
    );
}

/// Paper-scale grid at 128 devices: the grouped/pruned/arena engine
/// still returns the reference scan's plan bit-for-bit on the models
/// the paper-scale bench sweeps. The 256-layer BERT is left to the
/// release-mode bench — profiling its 7.4k tasks in a debug test run
/// would dominate the whole tier-1 suite.
#[test]
fn paper_scale_models_match_at_128_devices() {
    let cluster = ClusterSpec::v100_cluster(16); // 128 devices
    let models = [
        ("gpt-96l", gpt_graph(&GptConfig::enlarged(1600, 96))),
        (
            "resnet152x8",
            resnet_graph(&ResNetConfig::new(ResNetDepth::R152, 8)),
        ),
    ];
    for (name, g) in models {
        let label = format!("{name} @ 128 devices");
        let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let blocks = block_partition(
            &g,
            &profiler,
            &atomic,
            BlockLimits {
                k: 32,
                mem_limit: cluster.device.memory_bytes,
                profile_batch: 1,
            },
        );
        let seq = form_stage_reference(&g, &profiler, &blocks, &cluster, 1024);
        let opts = SearchOptions {
            threads: 4,
            tp_max: 1,
        };
        let (par, stats) = form_stage_with(&g, &profiler, &blocks, &cluster, 1024, &opts);
        assert_identical(&seq, &par, &label);
        assert!(seq.is_some(), "{label}: expected feasible");
        assert!(
            stats.stage_cache.hits > 0,
            "{label}: stage-cost memo never hit"
        );
    }
}

/// Paper-scale end-to-end under the strict verifier: `Rannc::partition`
/// with `VerifyMode::Fail` must accept the engine's 128-device plan.
#[test]
fn paper_scale_partition_verifies_under_fail_mode() {
    let g = resnet_graph(&ResNetConfig::new(ResNetDepth::R152, 8));
    let cluster = ClusterSpec::v100_cluster(16);
    let plan = Rannc::new(
        PartitionConfig::new(1024)
            .with_k(32)
            .with_verify(VerifyMode::Fail)
            .with_threads(4),
    )
    .partition(&g, &cluster)
    .expect("paper-scale partition verifies");
    assert!(!plan.stages.is_empty(), "expected a feasible plan");
}

/// End-to-end: `Rannc::partition` on the parallel engine passes the
/// static verifier gate (`VerifyMode::Fail`), and its plan matches a
/// one-thread partition of the same model.
#[test]
fn full_partition_verifies_under_fail_mode() {
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(2);
    let parallel = Rannc::new(
        PartitionConfig::new(64)
            .with_k(8)
            .with_verify(VerifyMode::Fail)
            .with_threads(4),
    );
    let sequential = Rannc::new(
        PartitionConfig::new(64)
            .with_k(8)
            .with_verify(VerifyMode::Fail)
            .with_threads(1),
    );
    let (plan_p, stats) = parallel
        .partition_with_stats(&g, &cluster)
        .expect("parallel partition verifies");
    let plan_s = sequential
        .partition_with_stats(&g, &cluster)
        .expect("sequential partition verifies")
        .0;
    assert_eq!(plan_p.stages.len(), plan_s.stages.len());
    for (a, b) in plan_p.stages.iter().zip(&plan_s.stages) {
        assert_eq!(a.set, b.set);
        assert_eq!(a.replicas, b.replicas);
    }
    assert_eq!(plan_p.microbatches, plan_s.microbatches);
    assert!(stats.search.candidates > 0);
}
