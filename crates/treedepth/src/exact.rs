//! Exact treedepth via memoized branch-and-bound on vertex subsets.
//!
//! The recursion is the textbook one (in the vertex-count convention):
//!
//! - `td(G) = 1` for a single vertex,
//! - `td(G) = max over connected components` if disconnected,
//! - `td(G) = 1 + min_{v} td(G − v)` if connected.
//!
//! Subsets are `u64` bitmasks (`n ≤ 28`), results are memoized, and the
//! search is pruned with a shortest-path lower bound (`G ⊇ P_{d+1}` for
//! diameter `d`, so `td(G) ≥ ⌈log₂(d + 2)⌉`) and the running best upper
//! bound. [`optimal_elimination_tree`] reconstructs an optimal (and, by
//! construction, coherent) model.

use crate::elimination::EliminationTree;
use locert_graph::{Graph, NodeId};
use std::collections::HashMap;
use std::fmt;

/// Maximum vertex count accepted by the exact solver.
pub const EXACT_LIMIT: usize = 28;

/// The branch-and-bound search ran out of its expansion budget.
///
/// Returned by [`treedepth_exact_within`] and
/// [`optimal_elimination_tree_within`] when the number of branch
/// expansions exceeds the caller's budget. The partial search state is
/// discarded: treedepth lower/upper bounds obtained before exhaustion
/// are not trustworthy as exact values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The branch budget the search was given.
    pub budget: u64,
    /// Branch expansions performed before giving up.
    pub branches: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exact treedepth search exceeded its budget of {} branch expansions",
            self.budget
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Exact treedepth of `g` (vertex-count convention; `td(K_1) = 1`).
///
/// # Panics
///
/// Panics if `g` is empty or has more than [`EXACT_LIMIT`] vertices.
pub fn treedepth_exact(g: &Graph) -> usize {
    treedepth_exact_within(g, u64::MAX).expect("unbounded search cannot exhaust its budget")
}

/// Exact treedepth of `g`, abandoning the search after `budget` branch
/// expansions. A budget of `u64::MAX` is effectively unbounded; at any
/// size within [`EXACT_LIMIT`] a budget of a few million suffices for
/// every instance the workspace generates.
///
/// # Panics
///
/// Panics if `g` is empty or has more than [`EXACT_LIMIT`] vertices.
pub fn treedepth_exact_within(g: &Graph, budget: u64) -> Result<usize, BudgetExceeded> {
    let n = g.num_nodes();
    assert!(n >= 1, "treedepth of the empty graph is undefined");
    assert!(
        n <= EXACT_LIMIT,
        "exact treedepth limited to {EXACT_LIMIT} vertices"
    );
    let _span = locert_trace::span!("treedepth.exact");
    let mut solver = Solver::new(g, budget);
    let full = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let td = solver.treedepth(full);
    solver.flush_stats();
    td
}

/// An optimal elimination tree of a **connected** graph `g`, reconstructed
/// from the exact solver. The result is coherent (children are attached
/// below the component they belong to).
///
/// # Panics
///
/// Panics if `g` is empty, disconnected, or exceeds [`EXACT_LIMIT`].
pub fn optimal_elimination_tree(g: &Graph) -> EliminationTree {
    optimal_elimination_tree_within(g, u64::MAX)
        .expect("unbounded search cannot exhaust its budget")
}

/// An optimal elimination tree of a **connected** graph `g`, abandoning
/// the search after `budget` branch expansions (see
/// [`treedepth_exact_within`]).
///
/// # Panics
///
/// Panics if `g` is empty, disconnected, or exceeds [`EXACT_LIMIT`].
pub fn optimal_elimination_tree_within(
    g: &Graph,
    budget: u64,
) -> Result<EliminationTree, BudgetExceeded> {
    let n = g.num_nodes();
    assert!((1..=EXACT_LIMIT).contains(&n), "size out of range");
    assert!(g.is_connected(), "optimal model requires a connected graph");
    let _span = locert_trace::span!("treedepth.exact.optimal_model");
    let mut solver = Solver::new(g, budget);
    let full = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut parent = vec![None; n];
    let built = solver.build(full, None, &mut parent);
    solver.flush_stats();
    built?;
    Ok(EliminationTree::new(g, &parent).expect("solver output is a model"))
}

struct Solver<'g> {
    g: &'g Graph,
    memo: HashMap<u64, usize>,
    budget: u64,
    branches: u64,
    prunes: u64,
    memo_hits: u64,
}

impl<'g> Solver<'g> {
    fn new(g: &'g Graph, budget: u64) -> Self {
        Solver {
            g,
            memo: HashMap::new(),
            budget,
            branches: 0,
            prunes: 0,
            memo_hits: 0,
        }
    }

    fn exceeded(&self) -> BudgetExceeded {
        BudgetExceeded {
            budget: self.budget,
            branches: self.branches,
        }
    }

    /// Publishes the solver-local search statistics to the global metrics
    /// registry (no-op when tracing is disabled).
    fn flush_stats(&self) {
        locert_trace::add("treedepth.exact.branches", self.branches);
        locert_trace::add("treedepth.exact.prunes", self.prunes);
        locert_trace::add("treedepth.exact.memo_hits", self.memo_hits);
        locert_trace::add("treedepth.exact.memo_entries", self.memo.len() as u64);
    }

    /// Connected components of the sub-vertex-set `mask`, as masks.
    fn components(&self, mask: u64) -> Vec<u64> {
        let mut comps = Vec::new();
        let mut left = mask;
        while left != 0 {
            let start = left.trailing_zeros() as usize;
            let mut comp = 0u64;
            let mut stack = vec![start];
            comp |= 1 << start;
            while let Some(u) = stack.pop() {
                for &v in self.g.neighbors(NodeId(u)) {
                    let bit = 1u64 << v.0;
                    if mask & bit != 0 && comp & bit == 0 {
                        comp |= bit;
                        stack.push(v.0);
                    }
                }
            }
            comps.push(comp);
            left &= !comp;
        }
        comps
    }

    /// Eccentricity-based lower bound: a BFS inside `mask` from its lowest
    /// vertex finds some shortest path of length `d`, giving a `P_{d+1}`
    /// subgraph and thus `td ≥ ⌈log₂(d + 2)⌉`.
    fn lower_bound(&self, mask: u64) -> usize {
        let count = mask.count_ones() as usize;
        if count <= 1 {
            return count;
        }
        let start = mask.trailing_zeros() as usize;
        let mut dist = HashMap::new();
        dist.insert(start, 0usize);
        let mut queue = std::collections::VecDeque::from([start]);
        let mut ecc = 0;
        while let Some(u) = queue.pop_front() {
            let du = dist[&u];
            ecc = ecc.max(du);
            for &v in self.g.neighbors(NodeId(u)) {
                if mask & (1u64 << v.0) != 0 && !dist.contains_key(&v.0) {
                    dist.insert(v.0, du + 1);
                    queue.push_back(v.0);
                }
            }
        }
        // Path on ecc+1 vertices: td >= ceil(log2(ecc + 2)).
        let path_len = ecc + 1;
        (usize::BITS - path_len.leading_zeros()) as usize
    }

    /// Exact treedepth of the sub-vertex-set `mask` (vertex-count
    /// convention). Handles disconnected masks by taking the max over
    /// components.
    fn treedepth(&mut self, mask: u64) -> Result<usize, BudgetExceeded> {
        let mut best = 0;
        for c in self.components(mask) {
            best = best.max(self.treedepth_connected(c)?);
        }
        Ok(best)
    }

    fn treedepth_connected(&mut self, mask: u64) -> Result<usize, BudgetExceeded> {
        let count = mask.count_ones() as usize;
        if count <= 1 {
            return Ok(count);
        }
        if count == 2 {
            return Ok(2);
        }
        if let Some(&hit) = self.memo.get(&mask) {
            self.memo_hits += 1;
            return Ok(hit);
        }
        let lb = self.lower_bound(mask);
        let mut best = count; // chain model upper bound.
        let mut m = mask;
        while m != 0 {
            let v = m.trailing_zeros() as usize;
            m &= m - 1;
            self.branches += 1;
            if self.branches > self.budget {
                return Err(self.exceeded());
            }
            let rest = mask & !(1u64 << v);
            // td = 1 + max over components of rest; prune component-wise.
            let mut worst = 0usize;
            for comp in self.components(rest) {
                if worst + 1 >= best {
                    self.prunes += 1;
                    break;
                }
                let sub_lb = self.lower_bound(comp);
                if sub_lb + 1 >= best {
                    self.prunes += 1;
                    worst = best; // will fail the bound below.
                    break;
                }
                worst = worst.max(self.treedepth_connected(comp)?);
            }
            if 1 + worst < best {
                best = 1 + worst;
                if best == lb {
                    break;
                }
            }
        }
        self.memo.insert(mask, best);
        Ok(best)
    }

    /// Reconstructs an optimal elimination tree of the connected set
    /// `mask`, attaching its root below `above`.
    fn build(
        &mut self,
        mask: u64,
        above: Option<usize>,
        parent: &mut [Option<usize>],
    ) -> Result<(), BudgetExceeded> {
        let target = self.treedepth_connected(mask)?;
        let count = mask.count_ones() as usize;
        if count == 1 {
            let v = mask.trailing_zeros() as usize;
            parent[v] = above;
            return Ok(());
        }
        // Find a root achieving the optimum.
        let mut m = mask;
        while m != 0 {
            let v = m.trailing_zeros() as usize;
            m &= m - 1;
            let rest = mask & !(1u64 << v);
            let comps = self.components(rest);
            let mut worst = 0;
            for &c in &comps {
                worst = worst.max(self.treedepth_connected(c)?);
            }
            if 1 + worst == target {
                parent[v] = above;
                for comp in comps {
                    self.build(comp, Some(v), parent)?;
                }
                return Ok(());
            }
        }
        unreachable!("some root must achieve the memoized optimum");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locert_graph::generators;

    #[test]
    fn single_vertex() {
        assert_eq!(treedepth_exact(&Graph::empty(1)), 1);
    }

    #[test]
    fn edge_and_small_paths() {
        assert_eq!(treedepth_exact(&generators::path(2)), 2);
        assert_eq!(treedepth_exact(&generators::path(3)), 2);
        assert_eq!(treedepth_exact(&generators::path(4)), 3);
        assert_eq!(treedepth_exact(&generators::path(7)), 3);
        assert_eq!(treedepth_exact(&generators::path(8)), 4);
        assert_eq!(treedepth_exact(&generators::path(15)), 4);
        assert_eq!(treedepth_exact(&generators::path(16)), 5);
    }

    #[test]
    fn cliques_are_worst_case() {
        for n in 1..=6 {
            assert_eq!(treedepth_exact(&generators::clique(n)), n);
        }
    }

    #[test]
    fn stars_have_treedepth_2() {
        for n in 2..8 {
            assert_eq!(treedepth_exact(&generators::star(n)), 2);
        }
    }

    #[test]
    fn cycles() {
        // td(C_n) = ⌈log₂ n⌉ + 1.
        for (n, expected) in [
            (3, 3),
            (4, 3),
            (5, 4),
            (6, 4),
            (8, 4),
            (9, 5),
            (16, 5),
            (17, 6),
        ] {
            assert_eq!(treedepth_exact(&generators::cycle(n)), expected, "C_{n}");
        }
    }

    #[test]
    fn disconnected_takes_max() {
        let g = generators::path(4).disjoint_union(&generators::clique(5));
        assert_eq!(treedepth_exact(&g), 5);
    }

    #[test]
    fn complete_binary_tree() {
        // td of the complete binary tree of height h (vertex convention) is
        // h + 1 (eliminate the root, recurse).
        assert_eq!(treedepth_exact(&generators::complete_kary_tree(2, 2)), 3);
        assert_eq!(treedepth_exact(&generators::complete_kary_tree(2, 3)), 4);
    }

    #[test]
    fn optimal_model_matches_exact_value() {
        let graphs = [
            generators::path(7),
            generators::cycle(6),
            generators::clique(4),
            generators::star(7),
            generators::spider(3, 3),
            generators::complete_kary_tree(2, 3),
        ];
        for g in &graphs {
            let td = treedepth_exact(g);
            let model = optimal_elimination_tree(g);
            assert_eq!(model.height(), td, "graph {g:?}");
            // Each subtree is built from one connected component adjacent
            // to its parent, so the reconstruction is coherent.
            assert!(model.is_coherent(g));
        }
    }

    #[test]
    fn random_bounded_treedepth_instances_respect_bound() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let (g, _) = generators::random_bounded_treedepth(12, 4, 0.4, &mut rng);
            assert!(treedepth_exact(&g) <= 4);
        }
    }

    #[test]
    fn complete_bipartite_treedepth() {
        // td(K_{m,m}) = m + 1: eliminate one side, a star remains… more
        // precisely the recursion gives m + 1.
        for m in 1..=4usize {
            let mut b = locert_graph::GraphBuilder::new(2 * m);
            for i in 0..m {
                for j in 0..m {
                    b.add_edge(i, m + j).unwrap();
                }
            }
            let g = b.build();
            assert_eq!(treedepth_exact(&g), m + 1, "K_{{{m},{m}}}");
        }
    }

    #[test]
    fn tiny_budget_is_reported_as_exceeded() {
        // C_16 needs well over ten branch expansions; the search must
        // give up with the typed error, not a wrong value.
        let g = generators::cycle(16);
        let err = treedepth_exact_within(&g, 10).unwrap_err();
        assert_eq!(err.budget, 10);
        assert!(err.branches > err.budget);
        assert!(optimal_elimination_tree_within(&g, 10).is_err());
        // The same search succeeds under a generous budget.
        assert_eq!(treedepth_exact_within(&g, 1 << 20).unwrap(), 5);
        let model = optimal_elimination_tree_within(&g, 1 << 20).unwrap();
        assert_eq!(model.height(), 5);
    }

    #[test]
    fn budget_counts_branches_not_vertices() {
        // A star resolves in one branch per leaf; a budget of the vertex
        // count is ample.
        let g = generators::star(8);
        assert_eq!(treedepth_exact_within(&g, 8).unwrap(), 2);
    }

    #[test]
    fn exact_agrees_with_formula_on_paths() {
        for n in 1usize..=20 {
            let expected = (usize::BITS - n.leading_zeros()) as usize; // ⌈log2(n+1)⌉
            assert_eq!(treedepth_exact(&generators::path(n)), expected, "P_{n}");
        }
    }
}
