//! Stage evaluation and the shared block-range table of the partition
//! search.
//!
//! Algorithm 2 invokes Algorithm 1 once per `(S, MB, T)` candidate, and
//! every DP run needs the task-set union of the block ranges `[from, to)`
//! it prices. Those unions are the same for every candidate of a search,
//! so one [`RangeTable`] serves them all: `(from, to) → (task-set union,
//! egress bytes)` in a flat `(nb+1)²` slot table indexed by
//! `from·(nb+1)+to`. A repeat query is one array index and no re-hashing;
//! [`prefetch_ranges`] fills the whole table up front with incremental
//! prefix unions (`[f, t+1)` = `[f, t) ∪ block t`) instead of letting each
//! range union its blocks from scratch on first touch.
//!
//! Stage *costs* are memoised by the DP arena alone (see
//! [`crate::dp::DpArena`]): its stamped `(b_prev, b, repl)` memo is the
//! only stage-cost memo of the planner.
//!
//! Determinism: an evaluation through the range table is bit-identical to
//! a fresh one ([`StageEvalCtx::eval_fresh`]); the evaluation is a pure
//! function of the stage plus search-constant context, so DP results —
//! and therefore the chosen plan — cannot depend on which thread happened
//! to fill a range first. The property test `prop_stagecache.rs` holds
//! this contract.

use crate::blocks::Block;
use crate::dp::DpParams;
use rannc_cost::CostModel;
use rannc_graph::{traverse, TaskGraph, TaskSet};
use rannc_hw::{ClusterSpec, LinkSpec};
use std::sync::{Arc, OnceLock};

/// Evaluated cost of one candidate stage.
///
/// The DP objective uses the communication-inclusive times (the paper:
/// "the execution time required for the i-th stage includes both the
/// computation time and the communication time to send the outputs to the
/// following stage"); the reconstructed plan reports compute-only times so
/// the downstream schedule simulator, which models transfers explicitly,
/// does not double-count them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Forward time including egress transfer (objective term).
    pub obj_f: f64,
    /// Backward time including ingress-gradient transfer (objective term).
    pub obj_b: f64,
    /// Compute-only forward time.
    pub comp_f: f64,
    /// Compute-only backward time.
    pub comp_b: f64,
    /// Profiled memory, bytes.
    pub mem: usize,
    /// Parameter elements in the stage.
    pub params: usize,
}

/// Cached union of a block range.
pub struct RangeInfo {
    /// Union of the range's block task sets.
    pub set: TaskSet,
    /// FP32 bytes of one sample's values leaving the set.
    pub egress: usize,
}

/// Slot `from·(nb+1)+to` holds range `[from, to)` of an `nb`-block list.
struct RangeSlots {
    nb: usize,
    slots: Box<[OnceLock<Arc<RangeInfo>>]>,
}

/// The shared block-range table of one search. Cheap to create; create
/// one per search and hand it to every DP invocation. Sized lazily on the
/// first query; one table serves one block partition.
#[derive(Default)]
pub struct RangeTable {
    slots: OnceLock<RangeSlots>,
}

impl RangeTable {
    /// An empty table.
    pub fn new() -> Self {
        RangeTable::default()
    }

    /// The union + egress of block range `[from, to)` over `nb` blocks,
    /// computing it with `build` on first use. A repeat query is one index
    /// plus one atomic load, and concurrent first touches of the *same*
    /// range dedupe the union work instead of racing to build it twice.
    ///
    /// # Panics
    ///
    /// If the table was sized for a different block count: the slot index
    /// would then name another range and return its union.
    pub fn range(
        &self,
        from: usize,
        to: usize,
        nb: usize,
        build: impl FnOnce() -> RangeInfo,
    ) -> Arc<RangeInfo> {
        let table = self.slots.get_or_init(|| RangeSlots {
            nb,
            slots: (0..(nb + 1) * (nb + 1)).map(|_| OnceLock::new()).collect(),
        });
        assert_eq!(table.nb, nb, "one RangeTable serves one block partition");
        Arc::clone(table.slots[from * (nb + 1) + to].get_or_init(|| Arc::new(build())))
    }
}

/// Fill the whole range table for `blocks` up front, one prefix-union
/// sweep per `from` row parallelized across `threads`.
///
/// Lazy filling builds range `[f, t)` by unioning `t − f` block sets on
/// first touch — `O(nb³)` set words across the table. The prefix sweep
/// extends row `f`'s running union by one block per step (`O(nb²)`
/// words) and batches the whole table before the tier sweep starts, so
/// every `(from, to)` query inside the DP is a pure table hit.
pub fn prefetch_ranges(g: &TaskGraph, blocks: &[Block], ranges: &RangeTable, threads: usize) {
    let nb = blocks.len();
    let rows: Vec<usize> = (0..nb).collect();
    let fill_row = |&from: &usize| {
        let mut set = blocks[from].set.clone();
        for to in (from + 1)..=nb {
            if to > from + 1 {
                set.union_with(&blocks[to - 1].set);
            }
            ranges.range(from, to, nb, || RangeInfo {
                set: set.clone(),
                egress: traverse::egress_bytes(g, &set),
            });
        }
    };
    if threads > 1 {
        crate::par::parallel_map_with(&rows, threads, fill_row);
    } else {
        rows.iter().for_each(fill_row);
    }
}

/// Stage-evaluation context: the search-constant inputs of one
/// `form_stage_dp` invocation, bundled so the DP, the test-support
/// reference and the property tests all evaluate candidate stages the
/// same way.
pub struct StageEvalCtx<'a, 'g> {
    /// The task graph being partitioned.
    pub g: &'g TaskGraph,
    /// The pricing oracle (profiler roofline or a calibrated model).
    pub cost: &'a dyn CostModel,
    /// Topologically sorted blocks.
    pub blocks: &'a [Block],
    /// The DP parameters (`S`, `D`, `BS`, `R`, `MB`, `T`, memory bound).
    pub p: DpParams,
    /// Link used for inter-stage transfer terms.
    pub link: LinkSpec,
    /// Gradient checkpointing active (`S > 1`).
    pub ckpt: bool,
    /// Activation-precision scale relative to FP32.
    pub act_scale: f64,
    /// Collective topology for tensor-parallel pricing; required (and
    /// only consulted) when `p.tp > 1`.
    pub cluster: Option<&'a ClusterSpec>,
}

impl<'a, 'g> StageEvalCtx<'a, 'g> {
    /// Build the context for one DP invocation.
    pub fn new(
        g: &'g TaskGraph,
        cost: &'a dyn CostModel,
        blocks: &'a [Block],
        p: &DpParams,
        link: LinkSpec,
        cluster: Option<&'a ClusterSpec>,
    ) -> Self {
        debug_assert!(
            p.tp <= 1 || cluster.is_some(),
            "tensor-parallel pricing (tp = {}) requires a cluster",
            p.tp
        );
        StageEvalCtx {
            g,
            cost,
            blocks,
            p: *p,
            link,
            ckpt: p.stages > 1,
            act_scale: cost.options().precision.activation_bytes() as f64 / 4.0,
            cluster,
        }
    }

    /// Per-replica micro-batch size for a stage on `repl` devices
    /// (`None` when the batch is too thin).
    pub fn micro_batch(&self, repl: usize) -> Option<usize> {
        let micro = self.p.batch_size / self.p.replica_factor / self.p.microbatches / repl;
        if micro == 0 {
            None
        } else {
            Some(micro)
        }
    }

    /// Evaluate the stage of blocks `[from, to)` on `repl` devices over
    /// the shared range table. `None` when the micro-batch would be empty
    /// or the stage exceeds device memory.
    pub fn eval_cached(
        &self,
        ranges: &RangeTable,
        from: usize,
        to: usize,
        repl: usize,
    ) -> Option<StageCost> {
        let micro = self.micro_batch(repl)?;
        let range = self.range_of(ranges, from, to);
        self.eval_range(&range.set, range.egress, to, micro)
    }

    /// Evaluate the same stage without the range table — the reference
    /// the table must agree with exactly.
    pub fn eval_fresh(&self, from: usize, to: usize, repl: usize) -> Option<StageCost> {
        let micro = self.micro_batch(repl)?;
        let info = self.build_range(from, to);
        self.eval_range(&info.set, info.egress, to, micro)
    }

    /// The cached task-set union of a block range.
    pub fn range_of(&self, ranges: &RangeTable, from: usize, to: usize) -> Arc<RangeInfo> {
        ranges.range(from, to, self.blocks.len(), || self.build_range(from, to))
    }

    fn build_range(&self, from: usize, to: usize) -> RangeInfo {
        let mut set = self.blocks[from].set.clone();
        for b in &self.blocks[from + 1..to] {
            set.union_with(&b.set);
        }
        let egress = traverse::egress_bytes(self.g, &set);
        RangeInfo { set, egress }
    }

    fn eval_range(
        &self,
        set: &TaskSet,
        egress: usize,
        to: usize,
        micro: usize,
    ) -> Option<StageCost> {
        // tp == 1 takes the historical call exactly (same memo keys and
        // float ops), so tensor-parallel support cannot perturb plans
        // searched with `--tp-max 1`.
        let prof = if self.p.tp > 1 {
            let cluster = self
                .cluster
                .expect("tensor-parallel pricing requires a cluster");
            self.cost.stage_cost_tp(
                set,
                micro,
                self.p.microbatches,
                self.ckpt,
                self.p.tp,
                cluster,
            )
        } else {
            self.cost
                .stage_cost(set, micro, self.p.microbatches, self.ckpt)
        };
        if prof.mem_bytes > self.p.mem_limit {
            return None;
        }
        // objective includes sending outputs onward (except the last stage)
        let comm = if to < self.blocks.len() && egress > 0 {
            let bytes = (egress as f64 * micro as f64 * self.act_scale) as usize;
            self.cost.transfer_time(self.link, bytes)
        } else {
            0.0
        };
        Some(StageCost {
            obj_f: prof.fwd_time + comm,
            obj_b: prof.bwd_time + comm,
            comp_f: prof.fwd_time,
            comp_b: prof.bwd_time,
            mem: prof.mem_bytes,
            params: prof.param_elems,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use crate::blocks::{block_partition, BlockLimits};
    use rannc_hw::{DeviceSpec, LinkSpec};
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    fn setup() -> (rannc_graph::TaskGraph, Vec<Block>) {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 10, 10));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let blocks = block_partition(
            &g,
            &profiler,
            &atomic,
            BlockLimits {
                k: 6,
                mem_limit: 32 << 30,
                profile_batch: 4,
            },
        );
        (g, blocks)
    }

    fn params(stages: usize) -> DpParams {
        DpParams {
            stages,
            devices: 4,
            batch_size: 64,
            replica_factor: 1,
            microbatches: 4,
            mem_limit: 32 << 30,
            tp: 1,
        }
    }

    #[test]
    fn cached_equals_fresh() {
        let (g, blocks) = setup();
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let ctx = StageEvalCtx::new(&g, &profiler, &blocks, &params(2), LinkSpec::nvlink(), None);
        let ranges = RangeTable::new();
        let nb = blocks.len();
        for from in 0..nb {
            for to in (from + 1)..=nb {
                for repl in 1..=2usize {
                    let cached = ctx.eval_cached(&ranges, from, to, repl);
                    let fresh = ctx.eval_fresh(from, to, repl);
                    assert_eq!(cached, fresh, "({from},{to},{repl})");
                    // second query reads the filled range and must agree
                    assert_eq!(ctx.eval_cached(&ranges, from, to, repl), fresh);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one RangeTable serves one block partition")]
    fn table_reused_at_another_block_count_panics() {
        let (g, blocks) = setup();
        let ranges = RangeTable::new();
        prefetch_ranges(&g, &blocks, &ranges, 1);
        // a shorter block list would index the wrong slot
        prefetch_ranges(&g, &blocks[..blocks.len() - 1], &ranges, 1);
    }

    #[test]
    fn keys_separate_stage_counts_via_ckpt() {
        let (g, blocks) = setup();
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let single =
            StageEvalCtx::new(&g, &profiler, &blocks, &params(1), LinkSpec::nvlink(), None);
        let multi = StageEvalCtx::new(&g, &profiler, &blocks, &params(2), LinkSpec::nvlink(), None);
        let ranges = RangeTable::new();
        let nb = blocks.len();
        let a = single.eval_cached(&ranges, 0, nb, 1).unwrap();
        let b = multi.eval_cached(&ranges, 0, nb, 1).unwrap();
        // checkpointing (S > 1) adds recompute time: sharing the range
        // table must not conflate the two candidates
        assert!(b.obj_b > a.obj_b);
    }

    #[test]
    fn concurrent_fill_matches_sequential() {
        let (g, blocks) = setup();
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let ctx = StageEvalCtx::new(&g, &profiler, &blocks, &params(2), LinkSpec::nvlink(), None);
        let ranges = RangeTable::new();
        let nb = blocks.len();
        let queries: Vec<(usize, usize, usize)> = (0..nb)
            .flat_map(|f| ((f + 1)..=nb).flat_map(move |t| (1..=3usize).map(move |r| (f, t, r))))
            .collect();
        let par: Vec<_> = crate::par::parallel_map_with(&queries, 4, |&(f, t, r)| {
            ctx.eval_cached(&ranges, f, t, r)
        });
        for (i, &(f, t, r)) in queries.iter().enumerate() {
            assert_eq!(par[i], ctx.eval_fresh(f, t, r), "({f},{t},{r})");
        }
    }
}
