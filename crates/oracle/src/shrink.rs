//! Delta-debugging counterexample shrinking.
//!
//! Given a graph on which some oracle relation fails and a predicate
//! that re-checks the failure, [`shrink`] greedily removes vertices
//! (then edges) while the failure persists, to a local minimum: no
//! single vertex or edge removal preserves the disagreement. Candidates
//! are tried in a fixed order (ascending vertex index, ascending edge
//! position), so the result is deterministic for a deterministic
//! predicate. Every accepted step is journaled as a `ShrinkStep` event —
//! the replay artifact records the path from witness to minimum.

use locert_graph::{Graph, NodeId};
use locert_trace::journal;

/// Shrinks `g` to a 1-minimal witness of `fails` (which must hold on
/// `g` itself; if it does not, `g` is returned unchanged). `case` labels
/// the journal events.
pub fn shrink(case: &str, g: &Graph, mut fails: impl FnMut(&Graph) -> bool) -> Graph {
    if !fails(g) {
        return g.clone();
    }
    let mut cur = g.clone();
    let step = |action: &str, next: &Graph| {
        journal::record_with(|| journal::Event::ShrinkStep {
            case: case.to_string(),
            action: action.to_string(),
            vertices: next.num_nodes() as u64,
        });
        locert_trace::add("oracle.shrink.steps", 1);
    };
    loop {
        let mut improved = false;
        // Vertex pass: drop one vertex, keep the induced subgraph.
        let mut v = 0;
        while v < cur.num_nodes() {
            if cur.num_nodes() <= 1 {
                break;
            }
            let keep: Vec<NodeId> = (0..cur.num_nodes())
                .filter(|&i| i != v)
                .map(NodeId)
                .collect();
            let (candidate, _) = cur.induced_subgraph(&keep);
            if fails(&candidate) {
                step("drop-vertex", &candidate);
                cur = candidate;
                improved = true;
                // Indices shifted; restart the pass.
                v = 0;
            } else {
                v += 1;
            }
        }
        // Edge pass: drop one edge, keep the vertex set.
        let mut e = 0;
        loop {
            let edges: Vec<(usize, usize)> = cur.edges().map(|(u, v)| (u.0, v.0)).collect();
            if e >= edges.len() {
                break;
            }
            let kept: Vec<(usize, usize)> = edges
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != e)
                .map(|(_, &uv)| uv)
                .collect();
            let candidate =
                Graph::from_edges(cur.num_nodes(), kept).expect("subset of valid edges");
            if fails(&candidate) {
                step("drop-edge", &candidate);
                cur = candidate;
                improved = true;
                e = 0;
            } else {
                e += 1;
            }
        }
        if !improved {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locert_graph::generators;

    #[test]
    fn shrinks_triangle_witness_to_the_triangle() {
        // "Contains a triangle" on K5 must shrink to exactly K3.
        let g = generators::clique(5);
        let has_triangle = |g: &Graph| {
            g.edges()
                .any(|(u, v)| g.neighbors(u).iter().any(|w| g.neighbors(v).contains(w)))
        };
        let min = shrink("test", &g, has_triangle);
        assert_eq!(min.num_nodes(), 3);
        assert_eq!(min.num_edges(), 3);
    }

    #[test]
    fn shrinks_disconnection_witness_to_two_vertices() {
        // "Disconnected with at least 2 vertices" minimizes to 2 isolated
        // vertices (the edge pass strips everything else).
        let g = generators::path(4).disjoint_union(&generators::cycle(3));
        let fails = |g: &Graph| g.num_nodes() >= 2 && !g.is_connected();
        let min = shrink("test", &g, fails);
        assert_eq!(min.num_nodes(), 2);
        assert_eq!(min.num_edges(), 0);
    }

    #[test]
    fn non_failing_input_is_returned_unchanged() {
        let g = generators::path(3);
        let min = shrink("test", &g, |_| false);
        assert_eq!(min, g);
    }

    #[test]
    fn shrink_is_deterministic() {
        let g = generators::clique(6);
        let pred = |g: &Graph| g.num_edges() >= 3;
        let a = shrink("test", &g, pred);
        let b = shrink("test", &g, pred);
        assert_eq!(a, b);
        assert_eq!(a.num_edges(), 3);
    }
}
