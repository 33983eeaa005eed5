//! Property-based tests on graph invariants.
//!
//! Strategy: generate random layered DAGs (tasks only talk to strictly
//! earlier values), then check structural properties that the partitioning
//! phases rely on: topological validity, convexity closure under
//! consecutive-interval selection, cut symmetry and reachability sanity,
//! and that the convexity checker's neighbour tables, piece-local
//! convexity test and group adjacency agree with the graph's own
//! (allocating) adjacency queries.

use proptest::prelude::*;
use rannc_graph::convex::ConvexChecker;
use rannc_graph::traverse;
use rannc_graph::{DType, OpKind, TaskGraph, TaskId, TaskSet, ValueKind};

/// A compact description of a random DAG: for each task, the number of
/// already-existing values it consumes (picked by index modulo).
#[derive(Debug, Clone)]
struct DagSpec {
    /// (num_inputs_consumed, seed) per task.
    tasks: Vec<(u8, u64)>,
}

fn dag_spec() -> impl Strategy<Value = DagSpec> {
    proptest::collection::vec((1u8..4, any::<u64>()), 1..60).prop_map(|tasks| DagSpec { tasks })
}

/// Materialize a spec into a graph. Every task reads 1–3 prior values and
/// produces one activation; the final activation is the model output.
fn build(spec: &DagSpec) -> TaskGraph {
    let mut g = TaskGraph::new("random");
    let x = g.add_value("x", [8], DType::F32, ValueKind::Input);
    let mut avail = vec![x];
    for (i, &(fanin, seed)) in spec.tasks.iter().enumerate() {
        let mut inputs = Vec::new();
        for j in 0..fanin as usize {
            let idx = ((seed >> (j * 8)) as usize) % avail.len();
            let v = avail[idx];
            if !inputs.contains(&v) {
                inputs.push(v);
            }
        }
        let out = g.add_value(format!("v{i}"), [8], DType::F32, ValueKind::Activation);
        let op = if inputs.len() > 1 {
            OpKind::Add
        } else {
            OpKind::Relu
        };
        g.add_task(format!("t{i}"), op, inputs, vec![out]).unwrap();
        avail.push(out);
    }
    g.mark_output(*avail.last().unwrap());
    g
}

/// Pseudorandom subset of `0..n`: task `i` is in when bit `i % 64` of
/// `sel` is set, or when `i % 3` matches `sel`'s residue.
fn pick(n: usize, sel: u64) -> TaskSet {
    TaskSet::from_ids(
        n,
        (0..n as u32)
            .filter(|i| (sel >> (i % 64)) & 1 == 1 || *i as usize % 3 == (sel as usize) % 3)
            .map(TaskId),
    )
}

/// Convex hull of `s`: every task on a path between two of its members
/// (reachable from `s` and reaching `s`).
fn hull(g: &TaskGraph, s: &TaskSet) -> TaskSet {
    let down = traverse::reachable_from(g, s);
    let up = traverse::reaching(g, s);
    TaskSet::from_ids(
        g.num_tasks(),
        g.task_ids().filter(|&t| down.contains(t) && up.contains(t)),
    )
}

/// Reference group adjacency: the block phase's original implementation,
/// with one membership `Vec` per task and an allocating successor query
/// per task. `ConvexChecker::group_adjacency` must reproduce it exactly,
/// list order included.
fn reference_adjacency(g: &TaskGraph, groups: &[TaskSet]) -> Vec<Vec<u32>> {
    let mut membership: Vec<Vec<u32>> = vec![Vec::new(); g.num_tasks()];
    for (gi, set) in groups.iter().enumerate() {
        for t in set.iter() {
            membership[t.index()].push(gi as u32);
        }
    }
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); groups.len()];
    for t in g.task_ids() {
        for s in g.task_successors(t) {
            for &a in &membership[t.index()] {
                for &b in &membership[s.index()] {
                    if a != b {
                        if !adj[a as usize].contains(&b) {
                            adj[a as usize].push(b);
                        }
                        if !adj[b as usize].contains(&a) {
                            adj[b as usize].push(a);
                        }
                    }
                }
            }
        }
    }
    adj
}

proptest! {
    #[test]
    fn topo_order_respects_edges(spec in dag_spec()) {
        let g = build(&spec);
        g.validate().unwrap();
        let order = traverse::topo_order(&g);
        prop_assert_eq!(order.len(), g.num_tasks());
        let pos = traverse::topo_positions(&g);
        for t in g.task_ids() {
            for s in g.task_successors(t) {
                prop_assert!(pos[t.index()] < pos[s.index()]);
            }
        }
    }

    /// Construction order is itself a topological order here, so any
    /// consecutive run of task ids is "between" its members in every path
    /// sense... not necessarily convex (a path can jump over the interval's
    /// members and come back) — but the FULL prefix set always is.
    #[test]
    fn prefixes_are_convex(spec in dag_spec()) {
        let g = build(&spec);
        let n = g.num_tasks();
        let mut ck = ConvexChecker::new(&g);
        for len in 1..=n {
            let s = TaskSet::from_ids(n, (0..len as u32).map(TaskId));
            prop_assert!(ck.is_convex(&s), "prefix of len {} not convex", len);
        }
    }

    /// Convexity via checker must agree with a brute-force definition.
    #[test]
    fn convexity_matches_bruteforce(spec in dag_spec(), sel in any::<u64>()) {
        let g = build(&spec);
        let n = g.num_tasks();
        // pick a pseudorandom subset
        let s = TaskSet::from_ids(
            n,
            (0..n as u32).filter(|i| (sel >> (i % 64)) & 1 == 1 || *i as usize % 3 == (sel as usize) % 3).map(TaskId),
        );
        let fast = ConvexChecker::new(&g).is_convex(&s);
        // brute force: for every task outside s, is it both reachable from s
        // and reaching s?
        let down = traverse::reachable_from(&g, &s);
        let up = traverse::reaching(&g, &s);
        let mut violated = false;
        for t in g.task_ids() {
            if !s.contains(t) && down.contains(t) && up.contains(t) {
                violated = true;
                break;
            }
        }
        prop_assert_eq!(fast, !violated || s.len() <= 1);
    }

    /// Cut bytes from A to B plus B to A equals total boundary traffic and
    /// is consistent with adjacency.
    #[test]
    fn cut_consistency(spec in dag_spec(), split in 0usize..60) {
        let g = build(&spec);
        let n = g.num_tasks();
        let k = (split % n.max(1)).max(1).min(n);
        let a = TaskSet::from_ids(n, (0..k as u32).map(TaskId));
        let b = TaskSet::from_ids(n, (k as u32..n as u32).map(TaskId));
        let ab = traverse::cut_bytes(&g, &a, &b);
        let ba = traverse::cut_bytes(&g, &b, &a);
        // construction order implies no backward edges
        prop_assert_eq!(ba, 0);
        if n > k {
            prop_assert_eq!(ab > 0 || !traverse::adjacent(&g, &a, &b), true);
            if ab > 0 {
                prop_assert!(traverse::adjacent(&g, &a, &b));
            }
        }
    }

    /// Reachability: `reachable_from` of the whole input frontier covers
    /// every task (all tasks ultimately depend on the input here).
    #[test]
    fn everything_reachable_from_sources(spec in dag_spec()) {
        let g = build(&spec);
        let n = g.num_tasks();
        let sources = TaskSet::from_ids(
            n,
            g.task_ids().filter(|&t| g.task_predecessors(t).is_empty()),
        );
        let r = traverse::reachable_from(&g, &sources);
        prop_assert_eq!(r.len(), n);
    }
}

// The block phase's exactness rests on these three: more cases than the
// default, on graphs small enough that each case costs microseconds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The checker's CSR rows are exactly the graph's successor and
    /// predecessor lists, and its positions the graph's topological ones.
    #[test]
    fn csr_tables_match_graph_queries(spec in dag_spec()) {
        let g = build(&spec);
        let ck = ConvexChecker::new(&g);
        let pos = traverse::topo_positions(&g);
        prop_assert_eq!(ck.num_tasks(), g.num_tasks());
        for t in g.task_ids() {
            prop_assert_eq!(ck.successors(t), &g.task_successors(t)[..]);
            prop_assert_eq!(ck.predecessors(t), &g.task_predecessors(t)[..]);
            prop_assert_eq!(ck.pos(t), pos[t.index()]);
        }
    }

    /// Piece-local convexity equals whole-set convexity of the rest, for a
    /// convex `a` and any `p ⊆ a` (empty, partial or all of `a`).
    #[test]
    fn convex_without_matches_whole_rest(
        spec in dag_spec(),
        seed_sel in any::<u64>(),
        piece_sel in any::<u64>(),
    ) {
        let g = build(&spec);
        let n = g.num_tasks();
        let mut ck = ConvexChecker::new(&g);
        let a = hull(&g, &pick(n, seed_sel));
        prop_assert!(ck.is_convex(&a));
        let picked = pick(n, piece_sel);
        let pieces = [
            TaskSet::from_ids(n, a.iter().filter(|&t| picked.contains(t))),
            TaskSet::from_ids(n, a.iter().filter(|&t| !picked.contains(t))),
            TaskSet::new(n),
            a.clone(),
        ];
        for p in &pieces {
            let mut rest = a.clone();
            rest.difference_with(p);
            prop_assert_eq!(ck.is_convex_without(&a, p), ck.is_convex(&rest));
        }
    }

    /// Group adjacency from the CSR table and the flat membership equals
    /// the reference, list order included, on random groupings where some
    /// tasks sit in two groups (like the atomic pass's constant clones).
    #[test]
    fn group_adjacency_matches_reference(
        spec in dag_spec(),
        n_groups in 1usize..12,
        assign in any::<u64>(),
        share in any::<u64>(),
    ) {
        let g = build(&spec);
        let n = g.num_tasks();
        let mut groups = vec![TaskSet::new(n); n_groups];
        for t in g.task_ids() {
            let mix = assign.rotate_left(t.0 % 64) ^ (t.0 as u64).wrapping_mul(0x9e37_79b9);
            groups[mix as usize % n_groups].insert(t);
            if (share >> (t.0 % 64)) & 1 == 1 {
                groups[(mix >> 8) as usize % n_groups].insert(t);
            }
        }
        let ck = ConvexChecker::new(&g);
        prop_assert_eq!(ck.group_adjacency(&groups), reference_adjacency(&g, &groups));
    }
}
