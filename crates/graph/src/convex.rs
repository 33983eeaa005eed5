//! Convexity of task sets.
//!
//! The paper (§III-B): "a group *u* is convex if and only if there is no
//! path between any pair α, β ∈ u such that the path goes through any
//! γ ∉ u. … a stage that contains such a subcomponent can cause a
//! deadlock", because pipeline stages execute in sequence and a non-convex
//! stage would have to wait on a later stage's output.
//!
//! The check here exploits topological positions: any violating path leaves
//! the set at some task with position `> min_pos(S)` and re-enters at a
//! task with position `< max_pos(S)`, so a forward search from the set's
//! boundary can be pruned to the set's topological window. For the
//! layer-local sets produced during coarsening this makes each check touch
//! only a few dozen tasks instead of the whole graph.

use crate::traverse::{csr_topo_positions, Csr};
use crate::{Membership, TaskGraph, TaskId, TaskSet};

/// Reusable convexity checker for one graph.
///
/// Holds the topological positions, CSR successor and predecessor tables
/// and a stamped visited buffer, so repeated checks (the block phase
/// performs tens of thousands) allocate nothing. The block phase also
/// reads its tables for group adjacency and block order.
pub struct ConvexChecker {
    pos: Vec<u32>,
    succ: Csr,
    pred: Csr,
    visited: Vec<u32>,
    stamp: u32,
    stack: Vec<TaskId>,
}

impl ConvexChecker {
    /// Build a checker for `g`: its neighbour tables and a topological
    /// order, once.
    pub fn new(g: &TaskGraph) -> Self {
        let succ = Csr::successors(g);
        let pred = succ.transpose();
        let pos = csr_topo_positions(&succ);
        ConvexChecker {
            pos,
            succ,
            pred,
            visited: vec![0; g.num_tasks()],
            stamp: 0,
            stack: Vec::new(),
        }
    }

    /// Number of tasks of the graph.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.pos.len()
    }

    /// Topological position of a task.
    #[inline]
    pub fn pos(&self, t: TaskId) -> u32 {
        self.pos[t.index()]
    }

    /// Distinct successors of `t` in ascending id order, as
    /// [`TaskGraph::task_successors`] returns them.
    #[inline]
    pub fn successors(&self, t: TaskId) -> &[TaskId] {
        self.succ.row(t)
    }

    /// Distinct predecessors of `t` in ascending id order, as
    /// [`TaskGraph::task_predecessors`] returns them.
    #[inline]
    pub fn predecessors(&self, t: TaskId) -> &[TaskId] {
        self.pred.row(t)
    }

    /// A fresh visited stamp (clearing the buffer when the counter wraps).
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.stamp = 1;
        }
        self.stamp
    }

    /// Whether `s` is convex in the graph.
    ///
    /// Empty and singleton sets are trivially convex.
    pub fn is_convex(&mut self, s: &TaskSet) -> bool {
        let mut max_pos = 0u32;
        let mut count = 0usize;
        for t in s.iter() {
            max_pos = max_pos.max(self.pos[t.index()]);
            count += 1;
        }
        if count <= 1 {
            return true;
        }
        let stamp = self.next_stamp();
        self.stack.clear();
        // Seed with successors outside S, pruned to the topo window.
        for t in s.iter() {
            for &succ in self.succ.row(t) {
                let i = succ.index();
                if !s.contains(succ) && self.pos[i] < max_pos && self.visited[i] != stamp {
                    self.visited[i] = stamp;
                    self.stack.push(succ);
                }
            }
        }
        // Forward search; re-entering S means a violating path exists.
        while let Some(t) = self.stack.pop() {
            for &succ in self.succ.row(t) {
                if s.contains(succ) {
                    return false;
                }
                let i = succ.index();
                if self.pos[i] < max_pos && self.visited[i] != stamp {
                    self.visited[i] = stamp;
                    self.stack.push(succ);
                }
            }
        }
        true
    }

    /// Whether `a ∖ p` is convex, for a convex `a` and `p ⊆ a`.
    ///
    /// Locality: a path between two tasks of `a ∖ p` runs between two
    /// tasks of the convex `a`, so every task on it lies in `a`; the ones
    /// outside `a ∖ p` lie in `p`. A violating path therefore leaves
    /// `a ∖ p` into `p`, walks inside `p` and re-enters `a ∖ p`. The search
    /// seeds from the tasks of `p` with a predecessor in `a ∖ p` and walks
    /// forward inside `p` only, so it costs O(|p| + edges of p) however
    /// large `a` is. Equals `is_convex(a ∖ p)` under the precondition; the
    /// answer is unspecified when `a` is not convex.
    pub fn is_convex_without(&mut self, a: &TaskSet, p: &TaskSet) -> bool {
        let in_rest = |t: TaskId| a.contains(t) && !p.contains(t);
        let stamp = self.next_stamp();
        self.stack.clear();
        for t in p.iter() {
            if self.pred.row(t).iter().any(|&q| in_rest(q)) {
                self.visited[t.index()] = stamp;
                self.stack.push(t);
            }
        }
        while let Some(t) = self.stack.pop() {
            for &succ in self.succ.row(t) {
                if p.contains(succ) {
                    if self.visited[succ.index()] != stamp {
                        self.visited[succ.index()] = stamp;
                        self.stack.push(succ);
                    }
                } else if a.contains(succ) {
                    return false;
                }
            }
        }
        true
    }

    /// Group-level adjacency lists of `groups`: two groups are adjacent
    /// when a task of one has a successor in the other. Sets may overlap
    /// (constant-task clones); a task shared by two groups may mark them
    /// adjacent, which is harmless (a merge of such groups is still legal).
    ///
    /// Each list holds its neighbours in first-encounter order — tasks in
    /// ascending id, each task's successors in ascending id, groups in
    /// index order — which callers rely on to break ties deterministically.
    pub fn group_adjacency(&self, groups: &[TaskSet]) -> Vec<Vec<u32>> {
        let member = Membership::new(self.num_tasks(), groups);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); groups.len()];
        for t in (0..self.num_tasks() as u32).map(TaskId) {
            let from = member.of(t);
            if from.is_empty() {
                continue;
            }
            for &s in self.succ.row(t) {
                for &a in from {
                    for &b in member.of(s) {
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
}

/// One-shot convexity check (builds a [`ConvexChecker`] internally).
pub fn is_convex(g: &TaskGraph, s: &TaskSet) -> bool {
    ConvexChecker::new(g).is_convex(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, OpKind, TaskGraph, ValueKind};

    /// Chain with a skip: a -> b -> c -> d, plus a -> d (residual).
    fn chain_with_skip() -> TaskGraph {
        let mut g = TaskGraph::new("skip");
        let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
        let va = g.add_value("va", [4], DType::F32, ValueKind::Activation);
        let vb = g.add_value("vb", [4], DType::F32, ValueKind::Activation);
        let vc = g.add_value("vc", [4], DType::F32, ValueKind::Activation);
        let vd = g.add_value("vd", [4], DType::F32, ValueKind::Activation);
        g.add_task("a", OpKind::Relu, vec![x], vec![va]).unwrap();
        g.add_task("b", OpKind::Tanh, vec![va], vec![vb]).unwrap();
        g.add_task("c", OpKind::Gelu, vec![vb], vec![vc]).unwrap();
        g.add_task("d", OpKind::Add, vec![vc, va], vec![vd])
            .unwrap();
        g.mark_output(vd);
        g
    }

    fn set(g: &TaskGraph, ids: &[u32]) -> TaskSet {
        TaskSet::from_ids(g.num_tasks(), ids.iter().map(|&i| TaskId(i)))
    }

    #[test]
    fn singletons_and_empty_are_convex() {
        let g = chain_with_skip();
        let mut ck = ConvexChecker::new(&g);
        assert!(ck.is_convex(&set(&g, &[])));
        for t in 0..4 {
            assert!(ck.is_convex(&set(&g, &[t])));
        }
    }

    #[test]
    fn contiguous_chain_is_convex() {
        let g = chain_with_skip();
        let mut ck = ConvexChecker::new(&g);
        assert!(ck.is_convex(&set(&g, &[0, 1])));
        assert!(ck.is_convex(&set(&g, &[1, 2])));
        assert!(ck.is_convex(&set(&g, &[0, 1, 2, 3])));
    }

    #[test]
    fn gap_is_not_convex() {
        let g = chain_with_skip();
        let mut ck = ConvexChecker::new(&g);
        // {a, d}: path a->b->c->d leaves the set and re-enters via the
        // residual's other operand — wait, a->d is a direct edge, but the
        // b,c path also connects them, so {a,d} is non-convex.
        assert!(!ck.is_convex(&set(&g, &[0, 3])));
        // {b, d} is non-convex because of b->c->d with c outside.
        assert!(!ck.is_convex(&set(&g, &[1, 3])));
        // {a, c} has a->b->c with b outside.
        assert!(!ck.is_convex(&set(&g, &[0, 2])));
    }

    #[test]
    fn parallel_branches_are_convex_without_reconverging_path() {
        // x -> a -> b ; x -> c -> d (two independent chains)
        let mut g = TaskGraph::new("par");
        let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
        let va = g.add_value("va", [4], DType::F32, ValueKind::Activation);
        let vb = g.add_value("vb", [4], DType::F32, ValueKind::Activation);
        let vc = g.add_value("vc", [4], DType::F32, ValueKind::Activation);
        let vd = g.add_value("vd", [4], DType::F32, ValueKind::Activation);
        g.add_task("a", OpKind::Relu, vec![x], vec![va]).unwrap();
        g.add_task("b", OpKind::Tanh, vec![va], vec![vb]).unwrap();
        g.add_task("c", OpKind::Gelu, vec![x], vec![vc]).unwrap();
        g.add_task("d", OpKind::Relu, vec![vc], vec![vd]).unwrap();
        g.mark_output(vb);
        g.mark_output(vd);
        let mut ck = ConvexChecker::new(&g);
        // {a, d} are unrelated: no path between them at all -> convex.
        assert!(ck.is_convex(&TaskSet::from_ids(4, [TaskId(0), TaskId(3)])));
    }

    #[test]
    fn one_shot_helper() {
        let g = chain_with_skip();
        assert!(is_convex(&g, &set(&g, &[1, 2])));
        assert!(!is_convex(&g, &set(&g, &[0, 2])));
    }

    #[test]
    fn repeated_checks_reuse_buffers() {
        let g = chain_with_skip();
        let mut ck = ConvexChecker::new(&g);
        for _ in 0..1000 {
            assert!(ck.is_convex(&set(&g, &[1, 2])));
            assert!(!ck.is_convex(&set(&g, &[0, 2])));
        }
    }
}
