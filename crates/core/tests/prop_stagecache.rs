//! Property tests of the shared block-range table: an evaluation through
//! the table must never differ from a fresh one — bit-for-bit — no matter
//! the model, the DP parameters, or the query order. This is the
//! determinism foundation the parallel `(S, MB)` sweep stands on.

use proptest::prelude::*;
use rannc_core::{
    atomic_partition, block_partition, BlockLimits, DpParams, RangeTable, StageEvalCtx,
};
use rannc_graph::TaskGraph;
use rannc_hw::{DeviceSpec, LinkSpec};
use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};
use rannc_profile::{Profiler, ProfilerOptions};

fn graphs() -> impl Strategy<Value = TaskGraph> {
    prop_oneof![
        (3usize..10, 16usize..64)
            .prop_map(|(depth, width)| mlp_graph(&MlpConfig::deep(width, width, depth, 4))),
        (1usize..3).prop_map(|layers| {
            bert_graph(&BertConfig {
                layers,
                ..BertConfig::tiny()
            })
        }),
    ]
}

fn blocks_of(g: &TaskGraph, k: usize) -> Vec<rannc_core::Block> {
    let profiler = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let atomic = atomic_partition(g);
    block_partition(
        g,
        &profiler,
        &atomic,
        BlockLimits {
            k,
            mem_limit: 32 << 30,
            profile_batch: 2,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random (from, to, repl) queries through a shared range table agree
    /// with `eval_fresh` exactly, including on repeats (filled ranges).
    #[test]
    fn cached_never_differs_from_fresh(g in graphs(), sel in any::<u64>(), stages in 1usize..4) {
        let blocks = blocks_of(&g, 6);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let p = DpParams {
            stages,
            devices: 4,
            batch_size: 32,
            replica_factor: 1 + (sel as usize % 2),
            microbatches: 1 << (sel as usize % 3),
            mem_limit: 32 << 30,
            tp: 1,
        };
        let ctx = StageEvalCtx::new(&g, &profiler, &blocks, &p, LinkSpec::nvlink(), None);
        let ranges = RangeTable::new();
        let nb = blocks.len();
        let mut x = sel | 1;
        for _ in 0..64 {
            // xorshift query generator: revisits ranges once filled
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let from = (x as usize) % nb;
            let to = from + 1 + ((x >> 16) as usize) % (nb - from);
            let repl = 1 + ((x >> 32) as usize) % 4;
            let cached = ctx.eval_cached(&ranges, from, to, repl);
            let fresh = ctx.eval_fresh(from, to, repl);
            prop_assert_eq!(cached.is_some(), fresh.is_some(), "({},{},{})", from, to, repl);
            if let (Some(c), Some(f)) = (cached, fresh) {
                // bit-identical, not approximately equal
                prop_assert_eq!(c.obj_f.to_bits(), f.obj_f.to_bits());
                prop_assert_eq!(c.obj_b.to_bits(), f.obj_b.to_bits());
                prop_assert_eq!(c.comp_f.to_bits(), f.comp_f.to_bits());
                prop_assert_eq!(c.comp_b.to_bits(), f.comp_b.to_bits());
                prop_assert_eq!(c.mem, f.mem);
                prop_assert_eq!(c.params, f.params);
            }
        }
    }

    /// Two DP-parameter sets sharing one range table stay isolated:
    /// evaluations under ctx A never leak into ctx B's results.
    #[test]
    fn contexts_sharing_a_cache_stay_isolated(g in graphs(), sel in any::<u64>()) {
        let blocks = blocks_of(&g, 5);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let mk = |stages: usize, mb: usize| DpParams {
            stages,
            devices: 4,
            batch_size: 32,
            replica_factor: 1,
            microbatches: mb,
            mem_limit: 32 << 30,
            tp: 1,
        };
        let pa = mk(1, 1);
        let pb = mk(2, 2);
        let a = StageEvalCtx::new(&g, &profiler, &blocks, &pa, LinkSpec::nvlink(), None);
        let b = StageEvalCtx::new(&g, &profiler, &blocks, &pb, LinkSpec::nvlink(), None);
        let ranges = RangeTable::new();
        let nb = blocks.len();
        let from = (sel as usize) % nb;
        let to = from + 1 + ((sel >> 24) as usize) % (nb - from);
        // interleave: fill via A, then query B, then re-query A
        let ra1 = a.eval_cached(&ranges, from, to, 1);
        let rb = b.eval_cached(&ranges, from, to, 1);
        let ra2 = a.eval_cached(&ranges, from, to, 1);
        prop_assert_eq!(ra1, a.eval_fresh(from, to, 1));
        prop_assert_eq!(rb, b.eval_fresh(from, to, 1));
        prop_assert_eq!(ra1, ra2);
    }
}
