//! Golden block-phase suite.
//!
//! Pins, for each case, the number of merges `coarsen` records, the
//! number of moves `uncoarsen` applies and an order-sensitive fingerprint
//! of the blocks `block_partition` returns (task ids per block, in block
//! order). Any change to the block phase that alters a single block,
//! a single move or a single merge fails here with the case named — the
//! block phase is meant to get faster without changing what it forms.
//!
//! Cases: every bundled model at its tiny configuration, the paper-scale
//! shapes of the determinism suite (GPT-96l and ResNet-152×8 at 128
//! devices), and two deep cold-planning shapes (GPT h1600 102 layers and
//! BERT h2048 249 layers at 128 devices) with the default cost model.

use rannc::core::blocks::BlockCtx;
use rannc::core::coarsen::coarsen;
use rannc::core::uncoarsen::uncoarsen;
use rannc::core::{atomic_partition, block_partition, BlockLimits, PartitionConfig};
use rannc::cost::{CostModel, CostModelSpec};
use rannc::graph::TaskGraph;
use rannc::hw::ClusterSpec;
use rannc::models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
    ResNetConfig, ResNetDepth, T5Config,
};
use rannc::profile::{Profiler, ProfilerOptions};

/// What one case must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    merges: usize,
    moves: usize,
    blocks: usize,
    fingerprint: u64,
}

fn golden(merges: usize, moves: usize, blocks: usize, fingerprint: u64) -> Golden {
    Golden {
        merges,
        moves,
        blocks,
        fingerprint,
    }
}

/// FNV-1a over each block's size and task ids, in block order.
fn fingerprint(sets: &[Vec<u32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(sets.len() as u32);
    for s in sets {
        eat(s.len() as u32);
        for &t in s {
            eat(t);
        }
    }
    h
}

/// Run the block phase step by step for the counts, then
/// `block_partition` for the blocks themselves.
fn observe(g: &TaskGraph, cost: &dyn CostModel, limits: BlockLimits) -> Golden {
    let atomic = atomic_partition(g);
    let mut ctx = BlockCtx::new(g, cost, limits);
    let coarse = coarsen(&mut ctx, &atomic.sets);
    let mut groups = coarse.groups;
    let moves = uncoarsen(&mut ctx, &mut groups, &coarse.merges);
    let blocks = block_partition(g, cost, &atomic, limits);
    let sets: Vec<Vec<u32>> = blocks
        .iter()
        .map(|b| b.set.iter().map(|t| t.0).collect())
        .collect();
    Golden {
        merges: coarse.merges.len(),
        moves,
        blocks: blocks.len(),
        fingerprint: fingerprint(&sets),
    }
}

fn limits(cluster: &ClusterSpec, k: usize) -> BlockLimits {
    BlockLimits {
        k,
        mem_limit: cluster.device.memory_bytes,
        profile_batch: 1,
    }
}

/// A bundled model at its tiny configuration, profiled as the
/// determinism suite profiles it (fp32, k = 8, two nodes).
fn tiny(g: &TaskGraph) -> Golden {
    let cluster = ClusterSpec::v100_cluster(2);
    let profiler = Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32());
    observe(g, &profiler, limits(&cluster, 8))
}

/// A paper-scale shape at 128 devices, as the determinism suite's
/// `paper_scale_models_match_at_128_devices` forms its blocks.
fn paper_scale(g: &TaskGraph) -> Golden {
    let cluster = ClusterSpec::v100_cluster(16);
    let profiler = Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32());
    observe(g, &profiler, limits(&cluster, 32))
}

/// A deep cold-planning shape at 128 devices with the cost model and
/// block limits `Rannc::partition` uses by default (fp32, k = 32).
fn deep_cold(g: &TaskGraph) -> Golden {
    let cluster = ClusterSpec::v100_cluster(16);
    let cfg = PartitionConfig::new(1024);
    let cost = CostModelSpec::default().build(
        g,
        cluster.device.clone(),
        ProfilerOptions::fp32(),
        &cluster,
    );
    observe(g, &*cost, limits(&cluster, cfg.k))
}

/// Compare every case and report all drifted ones at once.
fn check(cases: Vec<(&str, Golden, Golden)>) {
    let drifted: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, got, want)| format!("{label}: got {got:?}, golden {want:?}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "block phase drifted from its golden record:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn tiny_bundled_models_form_golden_blocks() {
    check(vec![
        (
            "mlp-128x10",
            tiny(&mlp_graph(&MlpConfig::deep(128, 128, 10, 10))),
            golden(25, 0, 8, 0xb24a73d70dde09b8),
        ),
        (
            "bert-tiny",
            tiny(&bert_graph(&BertConfig::tiny())),
            golden(70, 5, 8, 0xbb751bafef79a7a1),
        ),
        (
            "gpt-tiny",
            tiny(&gpt_graph(&GptConfig::tiny())),
            golden(49, 4, 8, 0x1821c69203867361),
        ),
        (
            "t5-tiny",
            tiny(&t5_graph(&T5Config::tiny())),
            golden(136, 7, 8, 0xb1b5f862f34833c0),
        ),
        (
            "resnet-tiny",
            tiny(&resnet_graph(&ResNetConfig::tiny())),
            golden(168, 8, 8, 0xe03994065d6d5a3d),
        ),
    ]);
}

#[test]
fn paper_scale_shapes_form_golden_blocks() {
    check(vec![
        (
            "gpt-96l-h1600 @ 128",
            paper_scale(&gpt_graph(&GptConfig::enlarged(1600, 96))),
            golden(2469, 61, 32, 0x724fdbaca2c79962),
        ),
        (
            "resnet152x8 @ 128",
            paper_scale(&resnet_graph(&ResNetConfig::new(ResNetDepth::R152, 8))),
            golden(484, 36, 32, 0x2b2f0caee3fdceb1),
        ),
    ]);
}

#[test]
fn deep_gpt_forms_golden_blocks() {
    check(vec![(
        "gpt-102l-h1600 @ 128",
        deep_cold(&gpt_graph(&GptConfig::enlarged(1600, 102))),
        golden(2625, 61, 32, 0xedf3f70ca55141bb),
    )]);
}

#[test]
fn deep_bert_forms_golden_blocks() {
    check(vec![(
        "bert-249l-h2048 @ 128",
        deep_cold(&bert_graph(&BertConfig::enlarged(2048, 249))),
        golden(7209, 31, 32, 0x9c2dd366e52d9969),
    )]);
}
