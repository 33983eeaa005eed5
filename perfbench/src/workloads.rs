//! The three workload families. Every input is a seeded draw made with the
//! public model, cluster and event-stream builders; the planner only ever
//! sees the built graphs, clusters and configurations.

use rannc::core::{PartitionConfig, Rannc};
use rannc::faults::{ClusterEvent, ClusterEventTrace};
use rannc::graph::TaskGraph;
use rannc::hw::{ClusterSpec, Precision};
use rannc::models::{
    bert_graph, gpt_graph, resnet_graph, BertConfig, GptConfig, ResNetConfig, ResNetDepth,
};
use rannc::tensor::Rng;
use std::time::Instant;

/// Workload names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["deep-cold", "shallow-wide", "churn-replan"];

/// Set-up is timed this many times before the timed loop and as many
/// again after it; `setup_s` is the median of all of them. Timing on both
/// sides of the loop keeps a slow spell of the host at start-up from
/// setting the figure.
const SETUP_REPEATS: usize = 20;

/// Iteration spacing of generated cluster events. It only places events
/// in time; replanning sees the cluster after each event either way.
const EVENT_GAP: usize = 1500;

#[derive(Clone, Copy)]
enum Model {
    Bert,
    Gpt,
    /// ResNet-152; `hidden` is the width factor.
    ResNet152,
}

/// An input before it is built: model, cluster size and planner settings.
struct Shape {
    model: Model,
    hidden: usize,
    layers: usize,
    nodes: usize,
    batch: usize,
    k: usize,
    tp_max: usize,
    precision: Precision,
}

impl Shape {
    fn label(&self) -> String {
        let prec = match self.precision {
            Precision::FP32 => "fp32",
            Precision::Mixed => "mixed",
        };
        let model = match self.model {
            Model::Bert => format!("bert-{}l-h{}", self.layers, self.hidden),
            Model::Gpt => format!("gpt-{}l-h{}", self.layers, self.hidden),
            Model::ResNet152 => format!("resnet152x{}", self.hidden),
        };
        format!(
            "{model}@{} b{} k{} tp{} {prec}",
            self.nodes * 8,
            self.batch,
            self.k,
            self.tp_max
        )
    }

    fn graph(&self) -> TaskGraph {
        match self.model {
            Model::Bert => bert_graph(&BertConfig::enlarged(self.hidden, self.layers)),
            Model::Gpt => gpt_graph(&GptConfig::enlarged(self.hidden, self.layers)),
            Model::ResNet152 => resnet_graph(&ResNetConfig::new(ResNetDepth::R152, self.hidden)),
        }
    }

    fn rannc(&self, threads: usize) -> Rannc {
        Rannc::new(
            PartitionConfig::new(self.batch)
                .with_k(self.k)
                .with_precision(self.precision)
                .with_tp_max(self.tp_max)
                .with_threads(threads),
        )
    }
}

/// A cold-planning input: exactly what a user hands `Rannc::partition`.
pub struct Cold {
    pub label: String,
    pub graph: TaskGraph,
    pub cluster: ClusterSpec,
    pub rannc: Rannc,
}

/// A replanning input: a model planned on `start`, then replanned after
/// every event of each stream. Each stream restarts from the plan for
/// `start`.
pub struct Chain {
    pub label: String,
    pub graph: TaskGraph,
    pub start: ClusterSpec,
    pub rannc: Rannc,
    /// Per stream, the cluster after each of its events.
    pub streams: Vec<Vec<ClusterSpec>>,
}

pub enum Inputs {
    Cold(Vec<Cold>),
    Churn(Vec<Chain>),
}

/// Timings of repeated set-ups.
#[derive(Default)]
pub struct SetupTimes {
    /// Wall time of each whole set-up (graphs, clusters, events), s.
    setups: Vec<f64>,
    /// Wall time of building the graphs within each set-up, ms.
    builds: Vec<f64>,
}

impl SetupTimes {
    /// Median set-up time over `self` and `more`, s.
    pub fn setup_s(&self, more: &SetupTimes) -> f64 {
        crate::stats::median(&[&self.setups[..], &more.setups[..]].concat())
    }

    /// Median graph-building time of one set-up over `self` and `more`, ms.
    pub fn build_ms(&self, more: &SetupTimes) -> f64 {
        crate::stats::median(&[&self.builds[..], &more.builds[..]].concat())
    }
}

/// A built workload and what building it cost.
pub struct Workload {
    name: String,
    seed: u64,
    threads: usize,
    pub inputs: Inputs,
    pub times: SetupTimes,
}

impl Workload {
    /// Build workload `name` from `seed`, timing [`SETUP_REPEATS`] set-ups
    /// after an untimed one.
    pub fn new(name: &str, seed: u64, threads: usize) -> Result<Workload, String> {
        // one untimed set-up first: the process's first allocations are
        // slower than any later ones
        build(name, seed, threads)?;
        let (inputs, times) = timed_setups(name, seed, threads)?;
        Ok(Workload {
            name: name.to_string(),
            seed,
            threads,
            inputs,
            times,
        })
    }

    /// Time [`SETUP_REPEATS`] more set-ups of the same inputs.
    pub fn time_setup_again(&self) -> Result<SetupTimes, String> {
        timed_setups(&self.name, self.seed, self.threads).map(|(_, times)| times)
    }
}

/// [`SETUP_REPEATS`] timed set-ups; returns the last one's inputs.
fn timed_setups(name: &str, seed: u64, threads: usize) -> Result<(Inputs, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (inputs, build_s) = build(name, seed, threads)?;
        times.setups.push(t.elapsed().as_secs_f64());
        times.builds.push(build_s * 1e3);
        last = Some(inputs);
    }
    Ok((last.expect("SETUP_REPEATS is positive"), times))
}

/// One set-up; also returns the seconds spent building graphs.
fn build(name: &str, seed: u64, threads: usize) -> Result<(Inputs, f64), String> {
    // a distinct stream per workload, so one seed gives unrelated draws
    let salt = NAMES.iter().position(|n| *n == name).unwrap_or(0) as u64;
    let mut rng = Rng::seed_from_u64(seed ^ (salt + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut build_s = 0.0;
    let mut graph = |s: &Shape| {
        let t = Instant::now();
        let g = s.graph();
        build_s += t.elapsed().as_secs_f64();
        g
    };
    let inputs = match name {
        "deep-cold" => Inputs::Cold(
            deep_cold(&mut rng)
                .iter()
                .map(|s| cold(s, graph(s), threads))
                .collect(),
        ),
        "shallow-wide" => Inputs::Cold(
            shallow_wide(&mut rng)
                .iter()
                .map(|s| cold(s, graph(s), threads))
                .collect(),
        ),
        "churn-replan" => {
            let mut chains = Vec::new();
            for (shape, streams, events) in churn() {
                let start = ClusterSpec::v100_cluster(shape.nodes);
                let mut kinds = [0usize; 4];
                let streams = (0..streams)
                    .map(|_| replay(rng.next_u64(), events, &start, &mut kinds))
                    .collect::<Result<_, _>>()?;
                let [leave, degrade, recover, join] = kinds;
                chains.push(Chain {
                    label: format!(
                        "{} ({leave} leave, {degrade} degrade, {recover} recover, {join} join)",
                        shape.label()
                    ),
                    graph: graph(&shape),
                    start,
                    rannc: shape.rannc(threads),
                    streams,
                });
            }
            Inputs::Churn(chains)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok((inputs, build_s))
}

fn cold(s: &Shape, graph: TaskGraph, threads: usize) -> Cold {
    Cold {
        label: s.label(),
        graph,
        cluster: ClusterSpec::v100_cluster(s.nodes),
        rannc: s.rannc(threads),
    }
}

/// The cluster after each event of a generated stream; tallies the
/// events by kind (leave, degrade, recover, join) into `kinds`.
fn replay(
    seed: u64,
    events: usize,
    start: &ClusterSpec,
    kinds: &mut [usize; 4],
) -> Result<Vec<ClusterSpec>, String> {
    let trace = ClusterEventTrace::generate(seed, events, start, EVENT_GAP);
    let mut state = start.clone();
    let mut states = Vec::with_capacity(events);
    for ev in trace.events() {
        kinds[match ev.event {
            ClusterEvent::Leave { .. } => 0,
            ClusterEvent::Degrade { .. } => 1,
            ClusterEvent::Recover { .. } => 2,
            ClusterEvent::Join => 3,
        }] += 1;
        state = ev
            .event
            .apply(&state)
            .map_err(|e| format!("generated event does not apply: {e}"))?;
        states.push(state.clone());
    }
    Ok(states)
}

fn draw(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo + 1)
}

/// Deep transformers planned cold. Five slots in rising graph size, so
/// the median op is the middle slot's and the tail sits on the largest;
/// the seed draws each slot's depth inside its band.
fn deep_cold(rng: &mut Rng) -> Vec<Shape> {
    use Model::{Bert, Gpt};
    use Precision::{Mixed, FP32};
    // (model, hidden, depth band, nodes, batch, precision)
    let slots = [
        (Gpt, 1600, (96, 104), 16, 1024, FP32),
        (Bert, 1024, (108, 116), 4, 256, FP32),
        (Bert, 1536, (140, 148), 8, 512, Mixed),
        (Gpt, 2048, (204, 212), 8, 512, Mixed),
        (Bert, 2048, (248, 256), 16, 1024, FP32),
    ];
    slots
        .iter()
        .map(
            |&(model, hidden, (lo, hi), nodes, batch, precision)| Shape {
                model,
                hidden,
                layers: draw(rng, lo, hi),
                nodes,
                batch,
                k: 32,
                tp_max: 1,
                precision,
            },
        )
        .collect()
}

/// Shallow models on wide clusters: the `(S, MB, T)` sweep does the work.
/// The seed draws each transformer's hidden size (its base − 64 to + 128
/// in steps of 64) and each ResNet's global batch (1× to 1.5× its base in
/// steps of an eighth), except for the first slot, which is the fixed
/// shape whose plan trains fewer samples than asked. Either draw moves an
/// op's time by a few percent at most. A transformer's global batch is
/// not drawn: it decides which micro-batch counts fit, and so moves an
/// op's time by up to a sixth.
fn shallow_wide(rng: &mut Rng) -> Vec<Shape> {
    use Model::{Bert, Gpt, ResNet152};
    use Precision::{Mixed, FP32};
    // (model, base hidden or width, nodes, base batch, k, tp_max, precision)
    let slots = [
        (Bert, 1024, 2, 256, 16, 1, FP32),
        (ResNet152, 8, 4, 256, 32, 1, FP32),
        (ResNet152, 8, 16, 1024, 32, 1, FP32),
        (Gpt, 1024, 64, 512, 32, 8, FP32),
        (Gpt, 1536, 8, 512, 32, 8, Mixed),
        (Bert, 1024, 4, 256, 32, 8, FP32),
        (Bert, 1536, 128, 4096, 32, 8, FP32),
    ];
    slots
        .iter()
        .enumerate()
        .map(
            |(i, &(model, hidden, nodes, batch, k, tp_max, precision))| {
                let mut shape = Shape {
                    model,
                    hidden,
                    layers: 24,
                    nodes,
                    batch,
                    k,
                    tp_max,
                    precision,
                };
                match model {
                    _ if i == 0 => {}
                    ResNet152 => shape.batch = batch * (8 + rng.below(5)) / 8,
                    Bert | Gpt => shape.hidden = hidden - 64 + 64 * rng.below(4),
                }
                shape
            },
        )
        .collect()
}

/// Replanning after cluster events: (shape, streams, events per stream).
/// Streams are short and each restarts from the full cluster, whose first
/// device loss is what usually sends a replan back to full planning, so
/// every seed holds a similar number of those slow replans. BERT streams
/// outnumber GPT ones two to one, so the median op is a BERT replan.
fn churn() -> [(Shape, usize, usize); 2] {
    let shape = |model, hidden, nodes, batch| Shape {
        model,
        hidden,
        layers: 96,
        nodes,
        batch,
        k: 32,
        tp_max: 1,
        precision: Precision::FP32,
    };
    [
        (shape(Model::Bert, 1024, 4, 256), 48, 10),
        (shape(Model::Gpt, 1600, 16, 1024), 24, 10),
    ]
}
