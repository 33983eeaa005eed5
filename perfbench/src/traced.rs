//! The traced run: per-layer time and work of each op, measured from
//! outside by calling, in order, the public functions that
//! `Rannc::partition` and `Rannc::repartition` compose. Each traced op is
//! paired with an untraced one on the same input; their plans must match.

use crate::plans::{
    drive, fingerprint, initial_plans, is_fallback, key_labels, Call, Quality, Registry,
};
use crate::stats::{geomean, key_medians, mean};
use crate::workloads::Workload;
use crate::{Metric, Outcome};
use rannc::core::coarsen::coarsen;
use rannc::core::compact::compact;
use rannc::core::uncoarsen::uncoarsen;
use rannc::core::{
    atomic_partition, block_partition, blocks::BlockCtx, form_stage_with, Block, BlockLimits,
    PartitionConfig, PartitionPlan, Rannc,
};
use rannc::cost::CostModel;
use rannc::graph::{traverse, TaskGraph};
use rannc::hw::ClusterSpec;
use rannc::profile::ProfilerOptions;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Layers whose self time is measured, in call order.
const LAYERS: [&str; 10] = [
    "cost.build",
    "core.atomic",
    "core.coarsen",
    "core.uncoarsen",
    "core.compact",
    "core.blocks.order",
    "core.repartition.warm",
    "core.search",
    "core.plan",
    "verify",
];

/// Work counters reported per op.
const COUNTERS: [&str; 12] = [
    "core.coarsen.merges",
    "core.coarsen.profile_misses",
    "core.uncoarsen.moves",
    "core.uncoarsen.profile_misses",
    "core.compact.profile_misses",
    "core.blocks.count",
    "core.search.candidates",
    "core.search.feasible",
    "core.search.pruned",
    "core.search.profile_misses",
    "core.stagecache.evals",
    "profile.misses",
];

/// One traced op's layer times (ms) and counts.
#[derive(Default)]
struct Sample {
    ms: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Sample {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.ms.entry(layer).or_default() += t.elapsed().as_secs_f64() * 1e3;
        out
    }

    fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Profiler misses since the last call.
struct Misses(u64);

impl Misses {
    fn take(&mut self, cost: &dyn CostModel) -> f64 {
        let now = cost.cache_stats().misses;
        let delta = now - self.0;
        self.0 = now;
        delta as f64
    }
}

fn profiler_options(cfg: &PartitionConfig) -> ProfilerOptions {
    ProfilerOptions {
        precision: cfg.precision,
        ..ProfilerOptions::fp32()
    }
    .with_noise(cfg.noise_sigma, cfg.noise_seed)
}

fn block_limits(cfg: &PartitionConfig, cluster: &ClusterSpec) -> BlockLimits {
    BlockLimits {
        k: cfg.k,
        // as `partition` does: on a heterogeneous fleet a block only has
        // to fit the largest device
        mem_limit: if cluster.is_heterogeneous() {
            cluster.max_memory_bytes()
        } else {
            cluster.device.memory_bytes
        },
        profile_batch: cfg.profile_batch,
    }
}

/// Blocks a traced op formed, and the cluster it formed them for.
type Formed = (Vec<Block>, ClusterSpec);

/// `Rannc::partition`, one public phase function at a time.
fn partition(
    rannc: &Rannc,
    g: &TaskGraph,
    cluster: &ClusterSpec,
    s: &mut Sample,
) -> Result<(PartitionPlan, Formed), String> {
    let cfg = rannc.config();
    let cost = s.time("cost.build", || {
        cfg.cost
            .build(g, cluster.device.clone(), profiler_options(cfg), cluster)
    });
    let cost: &dyn CostModel = &*cost;
    let atomic = s.time("core.atomic", || atomic_partition(g));
    if atomic.is_empty() {
        return Err("graph has no tasks".into());
    }
    let mut misses = Misses(cost.cache_stats().misses);
    let (mut ctx, coarse) = s.time("core.coarsen", || {
        let mut ctx = BlockCtx::new(g, cost, block_limits(cfg, cluster));
        let coarse = coarsen(&mut ctx, &atomic.sets);
        (ctx, coarse)
    });
    s.count("core.coarsen.merges", coarse.merges.len() as f64);
    s.count("core.coarsen.profile_misses", misses.take(cost));
    let mut groups = coarse.groups;
    let moves = s.time("core.uncoarsen", || {
        uncoarsen(&mut ctx, &mut groups, &coarse.merges)
    });
    s.count("core.uncoarsen.moves", moves as f64);
    s.count("core.uncoarsen.profile_misses", misses.take(cost));
    let groups = s.time("core.compact", || compact(&mut ctx, groups));
    s.count("core.compact.profile_misses", misses.take(cost));
    let blocks = s.time("core.blocks.order", || order_blocks(&ctx, groups));
    s.count("core.blocks.count", blocks.len() as f64);
    let plan = search(rannc, g, cost, &blocks, cluster, s)?
        .ok_or_else(|| "no feasible partition (INFEASIBLE)".to_string())?;
    Ok((plan, (blocks, cluster.clone())))
}

/// Stage search, plan assembly and the verification post-pass. `None`
/// when the search finds no feasible plan.
fn search(
    rannc: &Rannc,
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    s: &mut Sample,
) -> Result<Option<PartitionPlan>, String> {
    let cfg = rannc.config();
    let mut misses = Misses(cost.cache_stats().misses);
    let (sol, stats) = s.time("core.search", || {
        form_stage_with(g, cost, blocks, cluster, cfg.batch_size, &cfg.search)
    });
    s.count("core.search.candidates", stats.candidates as f64);
    s.count("core.search.feasible", stats.feasible as f64);
    s.count("core.search.pruned", stats.pruned as f64);
    s.count("core.search.profile_misses", misses.take(cost));
    s.count("core.stagecache.evals", stats.stage_cache.misses as f64);
    s.count("stagecache.hits", stats.stage_cache.hits as f64);
    let profile = cost.cache_stats();
    s.count("profile.misses", profile.misses as f64);
    s.count("profile.hits", profile.hits as f64);
    s.count("profile.entries", profile.entries() as f64);
    let Some(sol) = sol else {
        return Ok(None);
    };
    let plan = s.time("core.plan", || {
        PartitionPlan::from_solution(g.name.clone(), &sol, cfg.batch_size)
    });
    let report = s.time("verify", || {
        rannc::verify::verify_plan(g, &plan.view(), cluster)
    });
    if report.has_errors() {
        return Err(format!("verification failed:\n{}", report.render()));
    }
    Ok(Some(plan))
}

/// `Rannc::repartition`, one public phase function at a time: the old
/// stages become the blocks of a stage search on the planning view, and
/// full planning runs when that search finds nothing.
fn repartition(
    rannc: &Rannc,
    g: &TaskGraph,
    old: &PartitionPlan,
    after: &ClusterSpec,
    s: &mut Sample,
) -> Result<(PartitionPlan, Option<Formed>), String> {
    let cfg = rannc.config();
    let view = s.time("core.repartition.warm", || after.planning_view());
    if view.total_devices() == 0 {
        return Err("cluster has no healthy devices".into());
    }
    if old.stages.is_empty() {
        return partition(rannc, g, &view, s).map(|(p, f)| (p, Some(f)));
    }
    let cost = s.time("cost.build", || {
        cfg.cost
            .build(g, view.device.clone(), profiler_options(cfg), &view)
    });
    let cost: &dyn CostModel = &*cost;
    let blocks: Vec<Block> = s.time("core.repartition.warm", || {
        old.stages
            .iter()
            .map(|st| {
                let r = cost.stage_cost(&st.set, cfg.profile_batch, 1, true);
                Block {
                    set: st.set.clone(),
                    time: r.fwd_time + r.bwd_time,
                    mem: r.mem_bytes,
                }
            })
            .collect()
    });
    s.count("core.blocks.count", blocks.len() as f64);
    match search(rannc, g, cost, &blocks, &view, s)? {
        Some(plan) => Ok((plan, None)),
        None => {
            s.count("core.repartition.fallbacks", 1.0);
            partition(rannc, g, &view, s).map(|(p, f)| (p, Some(f)))
        }
    }
}

/// Price the final groups and put them in topological order, as
/// `block_partition` does after compaction: Kahn's algorithm over the
/// block DAG, ready blocks taken by smallest task position. An edge
/// counts only when the consumer's block does not itself hold the
/// producer (constant-task clones may sit in several blocks).
fn order_blocks(ctx: &BlockCtx<'_, '_>, groups: Vec<rannc::graph::TaskSet>) -> Vec<Block> {
    let g = ctx.g;
    let mut blocks: Vec<Block> = groups
        .into_iter()
        .map(|set| Block {
            time: ctx.time(&set),
            mem: ctx.mem(&set),
            set,
        })
        .collect();
    let pos = traverse::topo_positions(g);
    let nb = blocks.len();
    let mut member: Vec<Vec<usize>> = vec![Vec::new(); g.num_tasks()];
    for (bi, b) in blocks.iter().enumerate() {
        for t in b.set.iter() {
            member[t.index()].push(bi);
        }
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut indeg = vec![0usize; nb];
    for t in g.task_ids() {
        for s in g.task_successors(t) {
            for &a in &member[t.index()] {
                for &b in &member[s.index()] {
                    if a != b && !blocks[b].set.contains(t) && !succs[a].contains(&b) {
                        succs[a].push(b);
                        indeg[b] += 1;
                    }
                }
            }
        }
    }
    let min_pos: Vec<u32> = blocks
        .iter()
        .map(|b| {
            b.set
                .iter()
                .map(|t| pos[t.index()])
                .min()
                .unwrap_or(u32::MAX)
        })
        .collect();
    let mut ready: Vec<usize> = (0..nb).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(nb);
    while let Some((at, &bi)) = ready.iter().enumerate().min_by_key(|(_, &b)| min_pos[b]) {
        ready.swap_remove(at);
        order.push(bi);
        for &s in &succs[bi] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    assert_eq!(order.len(), nb, "block DAG has a cycle");
    let mut slots: Vec<Option<Block>> = blocks.drain(..).map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("each block is ordered once"))
        .collect()
}

/// The traced op for one call.
fn traced(call: &Call, s: &mut Sample) -> Result<(PartitionPlan, Option<Formed>), String> {
    match call {
        Call::Partition(c) => {
            partition(&c.rannc, &c.graph, &c.cluster, s).map(|(p, f)| (p, Some(f)))
        }
        Call::Repartition { chain, old, after } => {
            repartition(&chain.rannc, &chain.graph, old, after, s)
        }
    }
}

/// Whether traced block formation equals `block_partition` on the same
/// input, block for block.
fn check_blocks(rannc: &Rannc, g: &TaskGraph, formed: &Formed) -> Result<(), String> {
    let (blocks, cluster) = formed;
    let cfg = rannc.config();
    let cost = cfg
        .cost
        .build(g, cluster.device.clone(), profiler_options(cfg), cluster);
    let reference = block_partition(g, &*cost, &atomic_partition(g), block_limits(cfg, cluster));
    let same = reference.len() == blocks.len()
        && reference.iter().zip(blocks).all(|(a, b)| a.set == b.set);
    if same {
        Ok(())
    } else {
        Err(format!(
            "traced blocks ({}) differ from block_partition ({})",
            blocks.len(),
            reference.len()
        ))
    }
}

/// How a call ended, for failure messages.
fn describe<T, E: std::fmt::Display>(r: &std::thread::Result<Result<T, E>>) -> String {
    match r {
        Ok(Ok(_)) => "ok".into(),
        Ok(Err(e)) => e.to_string(),
        Err(_) => "panicked".into(),
    }
}

/// What one paired op produced.
struct OpRecord {
    key: usize,
    ok: bool,
    untraced_ms: f64,
    traced_ms: f64,
    replan: bool,
    fallback: bool,
    sample: Sample,
}

pub fn run(w: &Workload, seconds: f64) -> Result<Outcome, String> {
    let initial = initial_plans(&w.inputs)?;
    let labels = key_labels(&w.inputs);
    let mut registry = Registry::default();
    let mut blocks_checked: HashSet<usize> = HashSet::new();
    let mut records: Vec<OpRecord> = Vec::new();
    let mut errors: Vec<String> = Vec::new();

    let (count, _) = drive(&w.inputs, &initial, seconds, |key, call| {
        // alternate which of the pair runs first, so running second on
        // warm memory favours neither side of the overhead
        let mut sample = Sample::default();
        let untraced_first = records.len().is_multiple_of(2);
        let run_untraced = || {
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| call.run()));
            (r, t.elapsed().as_secs_f64() * 1e3)
        };
        let mut run_traced = || {
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| traced(call, &mut sample)));
            (r, t.elapsed().as_secs_f64() * 1e3)
        };
        let ((untraced, untraced_ms), (traced_result, traced_ms)) = if untraced_first {
            let u = run_untraced();
            (u, run_traced())
        } else {
            let t = run_traced();
            (run_untraced(), t)
        };

        let mut fail = |why: String| errors.push(format!("{}: {why}", labels[key]));
        let (plan, ok, fallback) = match (untraced, traced_result) {
            (Ok(Ok(plan)), Ok(Ok((tplan, formed)))) => {
                let mut ok = true;
                if fingerprint(&plan) != fingerprint(&tplan) {
                    fail("traced plan differs from untraced plan".into());
                    ok = false;
                }
                if !registry.note(key, call, &plan) {
                    fail("plan differs from its earlier plan".into());
                    ok = false;
                }
                if let Some(formed) = formed {
                    if blocks_checked.insert(key) {
                        if let Err(e) = check_blocks(call.rannc(), call.graph(), &formed) {
                            fail(e);
                            ok = false;
                        }
                    }
                }
                let fallback = match call {
                    Call::Repartition { old, .. } => is_fallback(old, &plan),
                    Call::Partition(_) => false,
                };
                (Some(plan), ok, fallback)
            }
            (u, t) => {
                fail(format!(
                    "untraced: {}; traced: {}",
                    describe(&u),
                    describe(&t)
                ));
                (u.ok().and_then(|r| r.ok()), false, false)
            }
        };
        records.push(OpRecord {
            key,
            ok,
            untraced_ms,
            traced_ms,
            replan: matches!(call, Call::Repartition { .. }),
            fallback,
            sample,
        });
        plan
    });

    let qualities = registry.qualities();
    let mut failed = 0;
    let mut quals = Vec::new();
    for r in &records {
        match qualities.get(&r.key) {
            Some(Ok(q)) if r.ok => quals.push(*q),
            Some(Err(e)) => {
                errors.push(format!("{}: simulate: {e}", labels[r.key]));
                failed += 1;
            }
            _ => failed += 1,
        }
    }
    errors.sort();
    errors.dedup();
    for e in &errors {
        println!("FAILED {e}");
    }

    let more_setups = w.time_setup_again()?;
    let mut metrics = vec![Metric::new(
        "models.build_ms",
        w.times.build_ms(&more_setups),
        "ms",
    )];
    metrics.extend(layer_metrics(&records, &quals));
    print_shares(&records);
    print_exactness(&records);
    Ok(Outcome {
        correct: failed == 0,
        attempted: count,
        failed,
        metrics,
    })
}

fn layer_metrics(records: &[OpRecord], quals: &[Quality]) -> Vec<Metric> {
    let n = records.len() as f64;
    let per_op_ms = |layer: &str| {
        records
            .iter()
            .map(|r| r.sample.ms.get(layer).copied().unwrap_or(0.0))
            .sum::<f64>()
            / n
    };
    let total = |name: &str| records.iter().map(|r| r.sample.get(name)).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let replans: Vec<&OpRecord> = records.iter().filter(|r| r.replan).collect();
    let of_quals = |f: fn(&Quality) -> f64| -> Vec<f64> { quals.iter().map(f).collect() };
    let traced_total: f64 = records.iter().map(|r| r.traced_ms).sum();
    let layer_total: f64 = LAYERS.iter().map(|l| per_op_ms(l) * n).sum();
    let typical =
        |f: fn(&OpRecord) -> f64| geomean(&key_medians(records.iter().map(|r| (r.key, f(r)))));

    let mut m = Vec::new();
    for layer in LAYERS {
        m.push(Metric::new(&format!("{layer}.ms"), per_op_ms(layer), "ms"));
    }
    for counter in COUNTERS {
        m.push(Metric::new(counter, total(counter) / n, "count"));
    }
    m.extend([
        Metric::new(
            "core.stagecache.hit_ratio",
            ratio(
                total("stagecache.hits"),
                total("stagecache.hits") + total("core.stagecache.evals"),
            ),
            "ratio",
        ),
        Metric::new(
            "profile.hit_ratio",
            ratio(
                total("profile.hits"),
                total("profile.hits") + total("profile.misses"),
            ),
            "ratio",
        ),
        Metric::new("profile.entries", total("profile.entries") / n, "count"),
        Metric::new(
            "core.repartition.ms",
            if replans.is_empty() {
                0.0
            } else {
                mean(&replans.iter().map(|r| r.traced_ms).collect::<Vec<_>>())
            },
            "ms",
        ),
        Metric::new(
            "core.repartition.fallback_ratio",
            ratio(
                replans.iter().filter(|r| r.fallback).count() as f64,
                replans.len() as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "pipeline.bubble_ratio",
            if quals.is_empty() {
                0.0
            } else {
                mean(&of_quals(|q| q.bubble))
            },
            "ratio",
        ),
        Metric::new(
            "core.plan.trained_over_asked",
            if quals.is_empty() {
                0.0
            } else {
                mean(&of_quals(|q| q.trained_over_asked))
            },
            "ratio",
        ),
        Metric::new(
            "core.plan.trained_over_asked_min",
            of_quals(|q| q.trained_over_asked)
                .into_iter()
                .fold(f64::INFINITY, f64::min)
                .min(1.0),
            "ratio",
        ),
        Metric::new("trace.coverage", ratio(layer_total, traced_total), "ratio"),
        Metric::new(
            "trace.overhead_ms",
            typical(|r| r.traced_ms) - typical(|r| r.untraced_ms),
            "ms",
        ),
    ]);
    m
}

/// Each layer's share of traced op time.
fn print_shares(records: &[OpRecord]) {
    let traced_total: f64 = records.iter().map(|r| r.traced_ms).sum();
    let mut line = String::from("layer shares of traced op time:");
    for layer in LAYERS {
        let ms = records
            .iter()
            .filter_map(|r| r.sample.ms.get(layer))
            .fold(0.0, |a, b| a + b);
        line.push_str(&format!(" {layer} {:.1}%", 100.0 * ms / traced_total));
    }
    println!("{line}");
    let fallbacks = records
        .iter()
        .map(|r| r.sample.get("core.repartition.fallbacks"))
        .sum::<f64>();
    let structural = records.iter().filter(|r| r.fallback).count();
    if records.iter().any(|r| r.replan) {
        println!(
            "replans falling back to full planning: {fallbacks} by the traced search, \
             {structural} by plan structure"
        );
    }
}

/// A counter is exact when every input read the same value on every
/// repeat of this run.
fn print_exactness(records: &[OpRecord]) {
    let mut seen: HashMap<(usize, &str), f64> = HashMap::new();
    let mut repeated = false;
    let mut inexact: Vec<&str> = Vec::new();
    for r in records {
        for counter in COUNTERS {
            match seen.get(&(r.key, counter)) {
                Some(&v) => {
                    repeated = true;
                    if v != r.sample.get(counter) && !inexact.contains(&counter) {
                        inexact.push(counter);
                    }
                }
                None => {
                    seen.insert((r.key, counter), r.sample.get(counter));
                }
            }
        }
    }
    if !repeated {
        println!("counter exactness: unknown (no input repeated)");
        return;
    }
    let exact: Vec<&str> = COUNTERS
        .iter()
        .copied()
        .filter(|c| !inexact.contains(c))
        .collect();
    println!("counters exact across repeats: {}", exact.join(" "));
    println!("counters inexact across repeats: {}", inexact.join(" "));
}
