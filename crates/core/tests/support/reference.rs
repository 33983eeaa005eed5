//! Test-support reference of the stage partitioner (paper §III-C).
//!
//! - [`form_stage_dp_hashmap`]: Algorithm 1 with a per-invocation
//!   `HashMap` memo, range table and DP tables, all fresh every call.
//! - [`form_stage_reference`]: Algorithm 2 as a one-thread, unpruned scan
//!   that runs every candidate through that DP.
//!
//! The planner's engine (`form_stage_dp` over a reused `DpArena`, and
//! `form_stage_with`) must match both bit for bit. `prop_dp_flat.rs` and
//! the workspace `determinism` suite include this file with `#[path]`.

#![allow(dead_code)]

use rannc_core::search::score_solution;
use rannc_core::{
    Block, DpParams, DpSolution, DpStage, RangeTable, SlotTable, StageCost, StageEvalCtx,
};
use rannc_cost::CostModel;
use rannc_graph::TaskGraph;
use rannc_hw::{ClusterSpec, LinkSpec};
use std::collections::HashMap;

/// Objective terms of a stage on a device group `scale`× slower than the
/// template: compute stretches, communication does not.
fn scaled_objectives(cost: &StageCost, scale: f64) -> (f64, f64) {
    if scale == 1.0 {
        (cost.obj_f, cost.obj_b)
    } else {
        (
            cost.obj_f - cost.comp_f + cost.comp_f * scale,
            cost.obj_b - cost.comp_b + cost.comp_b * scale,
        )
    }
}

/// Algorithm 1 with a `HashMap` memo and a range table local to the call.
#[allow(clippy::too_many_arguments)]
pub fn form_stage_dp_hashmap(
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    p: &DpParams,
    link: LinkSpec,
    slots: Option<&SlotTable>,
    cluster: Option<&ClusterSpec>,
) -> Option<DpSolution> {
    const INF: f64 = f64::INFINITY;
    let nb = blocks.len();
    let s_max = p.stages;
    let d_max = p.devices;
    if s_max == 0 || s_max > nb || d_max < s_max || p.microbatches == 0 || p.tp == 0 {
        return None;
    }
    if p.batch_size / p.replica_factor / p.microbatches == 0 {
        return None;
    }
    let eval = StageEvalCtx::new(g, cost, blocks, p, link, cluster);
    let ranges = RangeTable::new();

    let bs1 = nb + 1;
    let ds1 = d_max + 1;
    let idx = |s: usize, b: usize, d: usize| (s * bs1 + b) * ds1 + d;
    let cells = (s_max + 1) * bs1 * ds1;
    let mut v = vec![INF; cells];
    let mut tf = vec![0.0f64; cells];
    let mut tb = vec![0.0f64; cells];
    let mut parent: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX); cells];
    v[idx(0, 0, 0)] = 0.0;

    let mut local: HashMap<(usize, usize, usize), Option<StageCost>> = HashMap::new();
    let mut d_min = 1usize;

    for s in 1..=s_max {
        for b in s..=nb - s_max + s {
            let d_hi = d_max - (s_max - s);
            let d_lo = d_min.max(s);
            if d_hi < d_lo {
                continue;
            }
            let mut d = d_hi;
            loop {
                let mut found = false;
                let mut saw_micro_zero = false;
                for b_prev in (s - 1)..b {
                    for d_prev in (s - 1)..d {
                        if v[idx(s - 1, b_prev, d_prev)] == INF {
                            continue;
                        }
                        let repl = d - d_prev;
                        if p.batch_size / p.replica_factor / p.microbatches / repl == 0 {
                            saw_micro_zero = true;
                            continue;
                        }
                        let looked_up = *local
                            .entry((b_prev, b, repl))
                            .or_insert_with(|| eval.eval_cached(&ranges, b_prev, b, repl));
                        let Some(cost) = looked_up else {
                            continue;
                        };
                        let (obj_f, obj_b) = match slots {
                            None => (cost.obj_f, cost.obj_b),
                            Some(t) => {
                                if cost.mem > t.group_mem(d_prev * p.tp, d * p.tp) {
                                    continue;
                                }
                                scaled_objectives(&cost, t.group_scale(d_prev * p.tp, d * p.tp))
                            }
                        };
                        let cand_f = tf[idx(s - 1, b_prev, d_prev)].max(obj_f);
                        let cand_b = tb[idx(s - 1, b_prev, d_prev)].max(obj_b);
                        let cand_v = cand_f + cand_b;
                        found = true;
                        let here = idx(s, b, d);
                        if cand_v < v[here] {
                            v[here] = cand_v;
                            tf[here] = cand_f;
                            tb[here] = cand_b;
                            parent[here] = (b_prev, d_prev);
                        }
                    }
                }
                if !found && !saw_micro_zero && slots.is_none() {
                    d_min = d_min.max(d + 1);
                    break;
                }
                if d == d_lo {
                    break;
                }
                d -= 1;
            }
        }
    }

    if v[idx(s_max, nb, d_max)] == INF {
        return None;
    }

    let mut stages_rev: Vec<DpStage> = Vec::with_capacity(s_max);
    let (mut b, mut d) = (nb, d_max);
    for s in (1..=s_max).rev() {
        let (b_prev, d_prev) = parent[idx(s, b, d)];
        let repl = d - d_prev;
        let micro = p.batch_size / p.replica_factor / p.microbatches / repl;
        let cost = eval
            .eval_cached(&ranges, b_prev, b, repl)
            .expect("reconstructed stage must be feasible");
        let set = eval.range_of(&ranges, b_prev, b).set.clone();
        let (fwd_time, bwd_time) = match slots {
            None => (cost.comp_f, cost.comp_b),
            Some(t) => {
                let sc = t.group_scale(d_prev * p.tp, d * p.tp);
                (cost.comp_f * sc, cost.comp_b * sc)
            }
        };
        stages_rev.push(DpStage {
            set,
            block_range: (b_prev, b),
            devices: repl,
            tensor_parallel: p.tp,
            micro_batch: micro,
            fwd_time,
            bwd_time,
            mem_bytes: cost.mem,
            param_elems: cost.params,
        });
        b = b_prev;
        d = d_prev;
    }
    stages_rev.reverse();

    Some(DpSolution {
        value: v[idx(s_max, nb, d_max)],
        stages: stages_rev,
        microbatches: p.microbatches,
        replica_factor: p.replica_factor,
    })
}

/// Algorithm 2 over the `(S, MB)` grid (`T = 1`): one thread, no pruning,
/// every candidate through [`form_stage_dp_hashmap`]. Among a tier's
/// feasible candidates the first minimum score in `(S asc, MB asc)` order
/// wins; the first tier with any feasible candidate ends the search.
pub fn form_stage_reference(
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
) -> Option<DpSolution> {
    let d_node = cluster.node.devices;
    let hetero = cluster.is_heterogeneous();
    let mem_limit = if hetero {
        cluster.max_memory_bytes()
    } else {
        cluster.device.memory_bytes
    };
    let link = cluster.planning_link();
    let mut n = 1usize;
    while n <= cluster.nodes {
        let d = d_node * n;
        let r = (cluster.nodes / n).max(1);
        let slots = hetero
            .then(|| SlotTable::build(cluster, d, r, cost.device(), cost.options().precision));
        let mut best: Option<(f64, DpSolution)> = None;
        for s in (d_node * (n - 1) + 1)..=d {
            let mut mb = 1usize;
            while mb <= batch_size / r {
                let p = DpParams {
                    stages: s,
                    devices: d,
                    batch_size,
                    replica_factor: r,
                    microbatches: mb,
                    mem_limit,
                    tp: 1,
                };
                let sol =
                    form_stage_dp_hashmap(g, cost, blocks, &p, link, slots.as_ref(), Some(cluster));
                if let Some(sol) = sol {
                    let score = score_solution(&sol, cluster, cost);
                    if best.as_ref().is_none_or(|(b, _)| score < *b) {
                        best = Some((score, sol));
                    }
                }
                mb *= 2;
            }
        }
        if let Some((_, sol)) = best {
            return Some(sol);
        }
        n *= 2;
    }
    None
}
