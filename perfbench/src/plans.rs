//! What both runs share: the closed loop of planner calls, plan identity,
//! and the checks and quality figures made outside the timed region.

use crate::workloads::{Chain, Cold, Inputs};
use rannc::core::{PartitionError, PartitionPlan, Rannc};
use rannc::graph::TaskGraph;
use rannc::hw::ClusterSpec;
use rannc::pipeline::{deep_verify_plan, simulate_plan, SyncSchedule};
use rannc::profile::ProfilerOptions;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Inputs beyond the reported tail percentile of per-input median op
/// times; with this many inputs or fewer the tail is the slowest input's.
pub const TAIL_BEYOND: usize = 10;

/// A run makes at least this many ops, so a churn run has inputs beyond
/// its tail.
const MIN_OPS: usize = TAIL_BEYOND + 1;

/// One planner call of a round.
pub enum Call<'w, 'p> {
    Partition(&'w Cold),
    /// Replan `old` for the cluster `after` an event.
    Repartition {
        chain: &'w Chain,
        old: &'p PartitionPlan,
        after: &'w ClusterSpec,
    },
}

impl<'w> Call<'w, '_> {
    /// The op exactly as a user makes it.
    pub fn run(&self) -> Result<PartitionPlan, PartitionError> {
        match self {
            Call::Partition(c) => c.rannc.partition(&c.graph, &c.cluster),
            Call::Repartition { chain, old, after } => {
                chain.rannc.repartition(&chain.graph, old, after)
            }
        }
    }

    pub fn graph(&self) -> &'w TaskGraph {
        match self {
            Call::Partition(c) => &c.graph,
            Call::Repartition { chain, .. } => &chain.graph,
        }
    }

    pub fn rannc(&self) -> &'w Rannc {
        match self {
            Call::Partition(c) => &c.rannc,
            Call::Repartition { chain, .. } => &chain.rannc,
        }
    }

    /// The cluster the plan must be valid on: the planning view after an
    /// event, which is what `repartition` verifies against.
    pub fn target(&self) -> ClusterSpec {
        match self {
            Call::Partition(c) => c.cluster.clone(),
            Call::Repartition { after, .. } => after.planning_view(),
        }
    }
}

/// Input keys in round order with a readable name for each.
pub fn key_labels(inputs: &Inputs) -> Vec<String> {
    match inputs {
        Inputs::Cold(list) => list.iter().map(|c| c.label.clone()).collect(),
        Inputs::Churn(chains) => chains
            .iter()
            .flat_map(|c| {
                c.streams.iter().enumerate().flat_map(move |(s, stream)| {
                    (0..stream.len()).map(move |e| format!("{} stream {s} event {e}", c.label))
                })
            })
            .collect(),
    }
}

/// The plan each churn chain starts from, made before any timing.
pub fn initial_plans(inputs: &Inputs) -> Result<Vec<PartitionPlan>, String> {
    match inputs {
        Inputs::Cold(_) => Ok(Vec::new()),
        Inputs::Churn(chains) => chains
            .iter()
            .map(|c| {
                c.rannc
                    .partition(&c.graph, &c.start)
                    .map_err(|e| format!("{}: initial plan: {e}", c.label))
            })
            .collect(),
    }
}

/// Run rounds of ops until `seconds` have passed and at least
/// [`MIN_OPS`] ops ran: a closed loop with one caller. A round makes every
/// input once. Cold rounds are short and always finish; a churn round
/// interleaves its streams in proportion to each chain's stream count and
/// may stop at a stream boundary. `op` makes one call and returns its
/// plan, from which a churn stream continues; a failed call leaves the
/// stream on its previous plan. Returns the op count and the loop's wall
/// seconds.
pub fn drive<'w>(
    inputs: &'w Inputs,
    initial: &[PartitionPlan],
    seconds: f64,
    mut op: impl FnMut(usize, &Call<'w, '_>) -> Option<PartitionPlan>,
) -> (usize, f64) {
    let start = Instant::now();
    let mut ops = 0;
    let done = |ops: usize| start.elapsed().as_secs_f64() >= seconds && ops >= MIN_OPS;
    loop {
        match inputs {
            Inputs::Cold(list) => {
                for (key, c) in list.iter().enumerate() {
                    op(key, &Call::Partition(c));
                    ops += 1;
                }
            }
            Inputs::Churn(chains) => {
                for (c, s, first_key) in stream_order(chains) {
                    let chain = &chains[c];
                    let mut cur = initial[c].clone();
                    for (e, after) in chain.streams[s].iter().enumerate() {
                        let call = Call::Repartition {
                            chain,
                            old: &cur,
                            after,
                        };
                        if let Some(plan) = op(first_key + e, &call) {
                            cur = plan;
                        }
                        ops += 1;
                    }
                    if done(ops) {
                        break;
                    }
                }
            }
        }
        if done(ops) {
            return (ops, start.elapsed().as_secs_f64());
        }
    }
}

/// Churn streams as `(chain, stream, key of its first event)`, keys
/// numbered chain by chain as in [`key_labels`], ordered so that each
/// chain's streams spread evenly over the round.
fn stream_order(chains: &[Chain]) -> Vec<(usize, usize, usize)> {
    let mut order = Vec::new();
    let mut key = 0;
    for (c, chain) in chains.iter().enumerate() {
        for (s, stream) in chain.streams.iter().enumerate() {
            order.push((c, s, key));
            key += stream.len();
        }
    }
    let position =
        |&(c, s, _): &(usize, usize, usize)| (s as f64 + 0.5) / chains[c].streams.len() as f64;
    order.sort_by(|a, b| position(a).total_cmp(&position(b)));
    order
}

/// Identity of a plan's decisions: stage sets, replicas, tensor-parallel
/// degree and micro-batch per stage, micro-batch count and pipeline
/// replicas.
pub fn fingerprint(plan: &PartitionPlan) -> u64 {
    let mut h = DefaultHasher::new();
    (plan.replica_factor, plan.microbatches, plan.stages.len()).hash(&mut h);
    for s in &plan.stages {
        (s.replicas, s.tensor_parallel, s.micro_batch, s.set.len()).hash(&mut h);
        for t in s.set.iter() {
            t.index().hash(&mut h);
        }
    }
    h.finish()
}

/// Whether a replan fell back to full planning: its stages are not
/// unions of consecutive stages of the old plan.
pub fn is_fallback(old: &PartitionPlan, new: &PartitionPlan) -> bool {
    let mut next = 0;
    for stage in &new.stages {
        let mut union = rannc::graph::TaskSet::new(stage.set.universe());
        let first = next;
        while next < old.stages.len() && union.len() < stage.set.len() {
            union.union_with(&old.stages[next].set);
            next += 1;
        }
        if next == first || union != stage.set {
            return true;
        }
    }
    next != old.stages.len()
}

/// The first plan made for one input, and what checking it needs.
struct Seen<'w> {
    fingerprint: u64,
    plan: PartitionPlan,
    graph: &'w TaskGraph,
    rannc: &'w Rannc,
    target: ClusterSpec,
}

/// First plans by input key; later plans of a key must match them.
#[derive(Default)]
pub struct Registry<'w> {
    first: HashMap<usize, Seen<'w>>,
}

impl<'w> Registry<'w> {
    /// Record `plan` for `key`. Returns whether it matches the key's
    /// earlier plan (true for the first one).
    pub fn note(&mut self, key: usize, call: &Call<'w, '_>, plan: &PartitionPlan) -> bool {
        let fp = fingerprint(plan);
        match self.first.get(&key) {
            Some(seen) => seen.fingerprint == fp,
            None => {
                self.first.insert(
                    key,
                    Seen {
                        fingerprint: fp,
                        plan: plan.clone(),
                        graph: call.graph(),
                        rannc: call.rannc(),
                        target: call.target(),
                    },
                );
                true
            }
        }
    }

    /// Quality of every first plan, or why it could not be simulated.
    pub fn qualities(&self) -> HashMap<usize, Result<Quality, String>> {
        self.first
            .iter()
            .map(|(&key, seen)| (key, quality(seen)))
            .collect()
    }

    /// Deep-verify every distinct first plan under both schedules. Plans
    /// equal in decisions and checked against clusters of equal shape and
    /// memory are verified once.
    pub fn deep_verify(&self) -> HashMap<usize, Result<(), String>> {
        let mut done: HashMap<(u64, [usize; 4]), Result<(), String>> = HashMap::new();
        self.first
            .iter()
            .map(|(&key, seen)| {
                let t = &seen.target;
                let shape = [
                    t.nodes,
                    t.node.devices,
                    t.min_memory_bytes(),
                    t.max_memory_bytes(),
                ];
                let verdict = done
                    .entry((seen.fingerprint, shape))
                    .or_insert_with(|| deep_verify(seen))
                    .clone();
                (key, verdict)
            })
            .collect()
    }
}

fn deep_verify(seen: &Seen) -> Result<(), String> {
    for schedule in [SyncSchedule::FillDrain, SyncSchedule::OneFOneB] {
        let (report, _) = deep_verify_plan(
            seen.graph,
            &seen.plan,
            &seen.target,
            schedule,
            seen.rannc.config().precision,
        )
        .map_err(|e| format!("{schedule:?}: {e}"))?;
        if report.has_errors() {
            return Err(format!("{schedule:?}: {}", report.render()));
        }
    }
    Ok(())
}

/// Simulated quality of one plan.
#[derive(Clone, Copy)]
pub struct Quality {
    /// Samples the plan actually trains per iteration, per simulated
    /// second.
    pub trained_per_s: f64,
    /// Samples actually trained over the global batch asked for.
    pub trained_over_asked: f64,
    /// Share of stage time idle: 1 − mean stage utilization.
    pub bubble: f64,
}

/// Samples trained per iteration: the fewest any stage processes, each
/// stage handling `R · MB · replicas · micro_batch`. Computed from the
/// plan rather than from the simulator's throughput, which divides the
/// requested batch.
pub fn trained_samples(plan: &PartitionPlan) -> usize {
    plan.stages
        .iter()
        .map(|s| plan.replica_factor * plan.microbatches * s.replicas * s.micro_batch)
        .min()
        .unwrap_or(0)
}

fn quality(seen: &Seen) -> Result<Quality, String> {
    let cfg = seen.rannc.config();
    let opts = ProfilerOptions {
        precision: cfg.precision,
        ..ProfilerOptions::fp32()
    }
    .with_noise(cfg.noise_sigma, cfg.noise_seed);
    let cost = cfg
        .cost
        .build(seen.graph, seen.target.device.clone(), opts, &seen.target);
    let sim = simulate_plan(&seen.plan, &*cost, &seen.target).map_err(|e| e.to_string())?;
    let trained = trained_samples(&seen.plan) as f64;
    if trained == 0.0 || sim.iteration_time <= 0.0 {
        return Err(format!(
            "plan trains {trained} samples in {} s",
            sim.iteration_time
        ));
    }
    Ok(Quality {
        trained_per_s: trained / sim.iteration_time,
        trained_over_asked: trained / seen.plan.batch_size as f64,
        bubble: 1.0 - sim.utilization,
    })
}
