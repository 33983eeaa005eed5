//! Uncoarsening (boundary refinement) step of block-level partitioning
//! (paper §III-B).
//!
//! Walks the merge hierarchy from the coarsest level back toward level 0.
//! For every recorded merge (v, w), it considers moving `v` or `w` out of
//! the group currently containing `v ∪ w` into an adjacent group, when the
//! move **reduces the communication volume** between groups while keeping
//! both modified groups convex and within device memory.
//!
//! Following the paper ("we actually form the groups resulting from the
//! movement and compare the time for communication between the original
//! groups with that between groups resulting from the movement"), the
//! criterion is *local to the affected pair*: the cut between the source
//! and target groups is measured before and after the tentative move,
//!
//! ```text
//! Δ = cut(A∖p, B∪p) + cut(B∪p, A∖p) − cut(A, B) − cut(B, A)
//! ```
//!
//! and the move is applied when `Δ < 0`. Moves of whole subtree nodes keep
//! every deeper merge pair inside a single group, which is the paper's
//! "propagated to `G_{L'}`" bookkeeping in our flattened representation.
//!
//! Legality is tested local to the move as well. Almost every candidate
//! fails convexity on the source side, and for a convex source `A` a path
//! that breaks convexity of `A∖p` never leaves `A`
//! ([`ConvexChecker::is_convex_without`]), so that test walks the piece,
//! not the group. Only the few candidates that pass both convexity tests
//! build `A∖p` and pay for the memory check and the cut sums.
//!
//! [`ConvexChecker::is_convex_without`]: rannc_graph::convex::ConvexChecker::is_convex_without

use crate::blocks::BlockCtx;
use crate::coarsen::MergeRecord;
use rannc_graph::{traverse, TaskSet};

/// Run uncoarsening over `groups` in place.
///
/// Returns the number of moves applied (useful for tests/diagnostics).
pub fn uncoarsen(
    ctx: &mut BlockCtx<'_, '_>,
    groups: &mut [TaskSet],
    merges: &[MergeRecord],
) -> usize {
    let mut moves = 0;
    // Group adjacency changes only when a move is applied, so cache it
    // across the (many) merge records instead of rebuilding per record.
    // Its list order is the candidate order, which decides between moves
    // of equal Δ.
    let mut adj = ctx.checker.group_adjacency(groups);
    // The local source-side test needs a convex source. Merged groups are
    // convex by construction, but an unmerged atomic subcomponent need not
    // be (its cloned constant tasks may also feed another subcomponent on
    // a path into it), so each group is proved once here; an applied move
    // leaves both of its groups convex.
    let mut convex: Vec<bool> = groups.iter().map(|s| ctx.checker.is_convex(s)).collect();
    // coarsest first: iterate the records in reverse application order
    for m in merges.iter().rev() {
        let union = m.v.union(&m.w);
        // locate the group currently containing the whole pair
        let Some(a_idx) = groups.iter().position(|gset| union.is_subset(gset)) else {
            continue; // an earlier move separated the pair
        };
        let mut best: Option<(usize, bool, f64)> = None; // (target, move_v, delta)
        for &b in &adj[a_idx] {
            let b_idx = b as usize;
            for (move_v, piece) in [(true, &m.v), (false, &m.w)] {
                if let Some(delta) = eval_move(ctx, groups, a_idx, convex[a_idx], b_idx, piece) {
                    if delta < 0.0 && best.as_ref().map(|(_, _, bd)| delta < *bd).unwrap_or(true) {
                        best = Some((b_idx, move_v, delta));
                    }
                }
            }
        }
        if let Some((b_idx, move_v, _)) = best {
            let piece = if move_v { &m.v } else { &m.w };
            groups[a_idx].difference_with(piece);
            groups[b_idx].union_with(piece);
            convex[a_idx] = true;
            convex[b_idx] = true;
            moves += 1;
            adj = ctx.checker.group_adjacency(groups);
        }
    }
    moves
}

/// Evaluate moving `piece` from `groups[a]` to `groups[b]`.
///
/// Returns the communication-byte delta if the move is structurally legal
/// (piece strictly inside `a`, both results convex, target fits memory),
/// `None` otherwise. `a_convex` says whether `groups[a]` is convex.
///
/// The tests run cheapest and most selective first: `piece ⊆ A`, a
/// non-empty rest `A ⊄ piece`, convexity of `A∖p` (local to the piece when
/// `A` is convex), convexity of `B∪p`, then the memory fit. The conjunction
/// is the full-group one, and `fits` runs only when both convexity tests
/// pass, so the cost model sees exactly the same queries.
fn eval_move(
    ctx: &mut BlockCtx<'_, '_>,
    groups: &[TaskSet],
    a: usize,
    a_convex: bool,
    b: usize,
    piece: &TaskSet,
) -> Option<f64> {
    let src = &groups[a];
    if !piece.is_subset(src) || src.is_subset(piece) {
        return None;
    }
    let rest = || {
        let mut r = src.clone();
        r.difference_with(piece);
        r
    };
    let rest_convex = if a_convex {
        ctx.checker.is_convex_without(src, piece)
    } else {
        ctx.checker.is_convex(&rest())
    };
    if !rest_convex {
        return None;
    }
    let b_new = groups[b].union(piece);
    if !ctx.checker.is_convex(&b_new) || !ctx.fits(&b_new) {
        return None;
    }
    // Exact local delta: edges between the moved piece and third groups
    // keep crossing exactly one boundary before and after, so only the
    // (A, B) pair's cut changes.
    let a_rest = rest();
    let g = ctx.g;
    let before =
        (traverse::cut_bytes(g, src, &groups[b]) + traverse::cut_bytes(g, &groups[b], src)) as f64;
    let after =
        (traverse::cut_bytes(g, &a_rest, &b_new) + traverse::cut_bytes(g, &b_new, &a_rest)) as f64;
    Some(after - before) // negative = fewer bytes cross cuts
}

/// Total communication bytes across all group boundaries — the objective
/// uncoarsening decreases. Exposed for tests.
pub fn total_cut_bytes(g: &rannc_graph::TaskGraph, groups: &[TaskSet]) -> usize {
    let mut total = 0;
    for (i, a) in groups.iter().enumerate() {
        for (j, b) in groups.iter().enumerate() {
            if i != j {
                total += traverse::cut_bytes(g, a, b);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use crate::blocks::{BlockCtx, BlockLimits};
    use crate::coarsen::coarsen;
    use rannc_graph::convex::ConvexChecker;
    use rannc_graph::{DType, GraphBuilder, OpKind, TaskId};
    use rannc_hw::DeviceSpec;
    use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    fn pipeline(
        g: &rannc_graph::TaskGraph,
        k: usize,
        assert_global_cut: bool,
    ) -> (Vec<TaskSet>, usize, usize) {
        let profiler = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(g);
        let mut ctx = BlockCtx::new(
            g,
            &profiler,
            BlockLimits {
                k,
                mem_limit: 32 << 30,
                profile_batch: 2,
            },
        );
        let res = coarsen(&mut ctx, &atomic.sets);
        let mut groups = res.groups.clone();
        let before = total_cut_bytes(g, &groups);
        let moves = uncoarsen(&mut ctx, &mut groups, &res.merges);
        let after = total_cut_bytes(g, &groups);
        // The move criterion is local to the (source, target) pair — the
        // paper's is too — so global monotonicity only holds on graphs
        // without values consumed by three or more groups (e.g. chains).
        if assert_global_cut {
            assert!(
                after <= before,
                "uncoarsening increased cut: {before} -> {after}"
            );
        }
        (groups, moves, after)
    }

    #[test]
    fn preserves_invariants_mlp() {
        let g = mlp_graph(&MlpConfig::deep(32, 32, 12, 4));
        let (groups, _moves, _) = pipeline(&g, 4, true);
        let mut ck = ConvexChecker::new(&g);
        let mut covered = TaskSet::new(g.num_tasks());
        for s in &groups {
            assert!(!s.is_empty());
            assert!(ck.is_convex(s));
            covered.union_with(s);
        }
        assert_eq!(covered.len(), g.num_tasks());
    }

    #[test]
    fn preserves_invariants_bert() {
        let g = bert_graph(&BertConfig::tiny());
        let (groups, _, _) = pipeline(&g, 6, false);
        let mut ck = ConvexChecker::new(&g);
        let mut covered = TaskSet::new(g.num_tasks());
        for s in &groups {
            assert!(ck.is_convex(s));
            covered.union_with(s);
        }
        assert_eq!(covered.len(), g.num_tasks());
    }

    /// A source group that is not convex on entry is tested whole: the
    /// piece-local test presumes a convex source. The constant `wt` feeds
    /// both matmuls, so the atomic subcomponent of the second one,
    /// `{wt, mm2}`, is not convex (`wt → mm1 → mm2` leaves it). Moving
    /// `relu` out of `{wt, mm2, relu}` would lower the cut and passes the
    /// local test, but leaves that non-convex rest behind.
    #[test]
    fn non_convex_source_is_tested_whole() {
        let mut b = GraphBuilder::new("clone");
        let x = b.input("x", [4, 4], DType::F32);
        let w = b.param("w", [4, 4]);
        let wt = b.transpose(w, [4, 4]); // task 0: constant, cloned
        let v1 = b.matmul(x, wt); // task 1
        let v2 = b.matmul(v1, wt); // task 2
        let v3 = b.unary(OpKind::Relu, v2); // task 3
        let v4 = b.binary(OpKind::Add, v3, v2); // task 4
        b.output(v4);
        let g = b.finish();
        let n = g.num_tasks();
        let set = |ids: &[u32]| TaskSet::from_ids(n, ids.iter().map(|&i| TaskId(i)));
        assert!(atomic_partition(&g).sets.contains(&set(&[0, 2])));

        let mut groups = vec![set(&[0, 1]), set(&[0, 2, 3]), set(&[4])];
        let merges = vec![MergeRecord {
            level: 0,
            v: set(&[2]),
            w: set(&[3]),
        }];
        let mut ck = ConvexChecker::new(&g);
        assert!(!ck.is_convex(&groups[1]), "the source starts non-convex");
        // Only the source side rejects moving task 3 into the last group.
        let rest = set(&[0, 2]);
        let target = set(&[3, 4]);
        assert!(ck.is_convex_without(&groups[1], &set(&[3])));
        assert!(!ck.is_convex(&rest));
        assert!(ck.is_convex(&target));
        let cut = |a: &TaskSet, b: &TaskSet| {
            traverse::cut_bytes(&g, a, b) + traverse::cut_bytes(&g, b, a)
        };
        assert!(cut(&rest, &target) < cut(&groups[1], &groups[2]));

        // Whole-set evaluation: every candidate leaves or forms a
        // non-convex group, so nothing moves.
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let mut ctx = BlockCtx::new(
            &g,
            &profiler,
            BlockLimits {
                k: 1,
                mem_limit: 32 << 30,
                profile_batch: 2,
            },
        );
        let before = groups.clone();
        assert_eq!(uncoarsen(&mut ctx, &mut groups, &merges), 0);
        assert_eq!(groups, before);
    }

    #[test]
    fn never_increases_total_cut() {
        // checked inside `pipeline` for both model families
        let g = mlp_graph(&MlpConfig::deep(64, 64, 16, 8));
        let _ = pipeline(&g, 4, true);
    }
}
