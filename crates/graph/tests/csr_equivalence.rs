//! CSR observational equivalence: the flat offsets/neighbors layout
//! behind [`locert_graph::Graph`] must be indistinguishable from the
//! adjacency-set model it replaced, for every generator family.
//!
//! The reference model is a per-vertex `BTreeSet` rebuilt from the
//! graph's own edge list: if the CSR slices were unsorted, duplicated,
//! asymmetric, or misaligned against `offsets`, the slices and the sets
//! would disagree somewhere. On top of that, BFS orders, `digest()`,
//! and `.graph` text round-trips must all be stable under a rebuild —
//! those are the observations the certification stack actually makes.
//!
//! The builder itself is checked against the same model on raw edge
//! lists (duplicates, both orientations, isolated and late-added
//! vertices), and on which error the first bad edge raises.

use locert_graph::digest::digest;
use locert_graph::io::{parse_edge_list, to_edge_list};
use locert_graph::{generators, traversal, Graph, GraphBuilder, GraphError, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, VecDeque};

/// Every generator family at a size steered by `seed`.
fn families(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + (seed as usize % 21);
    let mut out = vec![
        ("path", generators::path(n)),
        ("cycle", generators::cycle(n.max(3))),
        ("clique", generators::clique(n.min(8))),
        ("star", generators::star(n)),
        ("spider", generators::spider(1 + n % 4, 1 + n % 5)),
        ("kary", generators::complete_kary_tree(2 + n % 2, 1 + n % 3)),
        ("random_tree", generators::random_tree(n, &mut rng)),
        (
            "random_connected",
            generators::random_connected(n, n / 2, &mut rng),
        ),
    ];
    let (g, _) = generators::random_bounded_treedepth(n.max(4), 3, 0.4, &mut rng);
    out.push(("bounded_td", g));
    out
}

/// Reference adjacency sets, rebuilt from the edge list alone.
fn reference_sets(g: &Graph) -> Vec<BTreeSet<usize>> {
    let mut sets = vec![BTreeSet::new(); g.num_nodes()];
    for (u, v) in g.edges() {
        sets[u.0].insert(v.0);
        sets[v.0].insert(u.0);
    }
    sets
}

/// BFS visit order over the reference sets (queue discipline, ascending
/// neighbor order) — the order the adjacency-set graph produced.
fn reference_bfs(sets: &[BTreeSet<usize>], source: usize) -> Vec<usize> {
    let mut seen = vec![false; sets.len()];
    let mut order = Vec::new();
    let mut queue = VecDeque::from([source]);
    seen[source] = true;
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in &sets[u] {
            if !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

/// BFS visit order over the CSR slices.
fn csr_bfs(g: &Graph, source: NodeId) -> Vec<usize> {
    let mut seen = vec![false; g.num_nodes()];
    let mut order = Vec::new();
    let mut queue = VecDeque::from([source]);
    seen[source.0] = true;
    while let Some(u) = queue.pop_front() {
        order.push(u.0);
        for &v in g.neighbors(u) {
            if !seen[v.0] {
                seen[v.0] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

/// One builder call in a raw construction script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Edge(usize, usize),
    Node,
}

/// A seeded raw script: valid edges with repeats in either orientation,
/// `add_node` calls interleaved, and some vertices left isolated.
fn raw_script(seed: u64) -> (usize, Vec<Op>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = rng.random_range(0..12usize);
    let start = n;
    let mut ops = Vec::new();
    let mut added: Vec<(usize, usize)> = Vec::new();
    for _ in 0..rng.random_range(0..60usize) {
        let roll = rng.random_range(0..10u32);
        if roll == 0 || n < 2 {
            ops.push(Op::Node);
            n += 1;
        } else if roll <= 3 && !added.is_empty() {
            let (u, v) = added[rng.random_range(0..added.len())];
            ops.push(if rng.random_bool(0.5) {
                Op::Edge(v, u)
            } else {
                Op::Edge(u, v)
            });
        } else {
            let u = rng.random_range(0..n);
            let v = (u + rng.random_range(1..n)) % n;
            added.push((u, v));
            ops.push(Op::Edge(u, v));
        }
    }
    (start, ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn builder_matches_adjacency_sets_on_raw_edge_lists(seed in 0u64..1 << 16) {
        let (start, ops) = raw_script(seed);
        let mut b = GraphBuilder::new(start);
        let mut sets = vec![BTreeSet::new(); start];
        for &op in &ops {
            match op {
                Op::Edge(u, v) => {
                    b.add_edge(u, v).unwrap();
                    sets[u].insert(v);
                    sets[v].insert(u);
                }
                Op::Node => {
                    prop_assert_eq!(b.add_node(), NodeId(sets.len()));
                    sets.push(BTreeSet::new());
                }
            }
        }
        prop_assert_eq!(b.num_nodes(), sets.len());
        let g = b.build();
        prop_assert_eq!(g.num_nodes(), sets.len());
        for v in g.nodes() {
            let want: Vec<NodeId> = sets[v.0].iter().map(|&u| NodeId(u)).collect();
            prop_assert_eq!(g.neighbors(v), &want[..], "neighbors of {:?}", v);
        }
        let m = sets.iter().map(BTreeSet::len).sum::<usize>() / 2;
        prop_assert_eq!(g.num_edges(), m);
        // The reference graph from the canonical (sorted, duplicate-free,
        // u < v) edge list must hash the same.
        let canonical = sets
            .iter()
            .enumerate()
            .flat_map(|(u, s)| s.range(u + 1..).map(move |&v| (u, v)));
        let reference = Graph::from_edges(sets.len(), canonical).unwrap();
        prop_assert_eq!(&g, &reference);
        prop_assert_eq!(digest(&g), digest(&reference));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csr_matches_adjacency_set_model(seed in 0u64..1 << 16) {
        for (name, g) in families(seed) {
            let sets = reference_sets(&g);

            // Neighbor slices: sorted, duplicate-free, symmetric, and
            // aligned with degrees and the edge count.
            let mut degree_sum = 0;
            for v in g.nodes() {
                let slice = g.neighbors(v);
                prop_assert!(
                    slice.windows(2).all(|w| w[0] < w[1]),
                    "{name}: neighbors of {v:?} not strictly sorted"
                );
                let as_set: BTreeSet<usize> = slice.iter().map(|u| u.0).collect();
                prop_assert_eq!(
                    &as_set, &sets[v.0],
                    "{}: neighbor set of {:?} diverged", name, v
                );
                prop_assert_eq!(g.degree(v), slice.len(), "{}: degree of {:?}", name, v);
                degree_sum += slice.len();
                for &u in slice {
                    prop_assert!(g.has_edge(v, u) && g.has_edge(u, v),
                        "{name}: has_edge asymmetric on ({v:?}, {u:?})");
                }
            }
            prop_assert_eq!(degree_sum, 2 * g.num_edges(), "{}: handshake", name);

            // BFS observation: the CSR slices visit in exactly the order
            // the sorted adjacency sets did.
            prop_assert_eq!(
                csr_bfs(&g, NodeId(0)),
                reference_bfs(&sets, 0),
                "{}: BFS order changed", name
            );
            prop_assert_eq!(
                traversal::is_connected(&g),
                reference_bfs(&sets, 0).len() == g.num_nodes(),
                "{}: connectivity", name
            );
        }
    }

    #[test]
    fn csr_rebuilds_and_io_round_trips_are_fixpoints(seed in 0u64..1 << 16) {
        for (name, g) in families(seed) {
            // Rebuilding through the set-based builder is the identity.
            let mut b = GraphBuilder::new(g.num_nodes());
            for (u, v) in g.edges() {
                b.add_edge(u.0, v.0).unwrap();
            }
            let rebuilt = b.build();
            prop_assert_eq!(&rebuilt, &g, "{}: builder round-trip", name);
            prop_assert_eq!(digest(&rebuilt), digest(&g), "{}: digest drift", name);

            // `.graph` text round-trip preserves the graph and its digest.
            let parsed = parse_edge_list(&to_edge_list(&g)).unwrap();
            prop_assert_eq!(&parsed, &g, "{}: io round-trip", name);
            prop_assert_eq!(digest(&parsed), digest(&g), "{}: io digest drift", name);
        }
    }
}

#[test]
fn endpoint_range_is_checked_u_first_then_v() {
    let mut b = GraphBuilder::new(3);
    assert_eq!(
        b.add_edge(5, 7).unwrap_err(),
        GraphError::NodeOutOfRange { node: 5, n: 3 }
    );
    assert_eq!(
        b.add_edge(1, 7).unwrap_err(),
        GraphError::NodeOutOfRange { node: 7, n: 3 }
    );
    assert_eq!(
        b.add_edge(4, 1).unwrap_err(),
        GraphError::NodeOutOfRange { node: 4, n: 3 }
    );
    // A failed call adds nothing.
    assert_eq!(b.build(), Graph::empty(3));
}

#[test]
fn self_loop_is_checked_after_the_range_checks() {
    let mut b = GraphBuilder::new(3);
    assert_eq!(
        b.add_edge(4, 4).unwrap_err(),
        GraphError::NodeOutOfRange { node: 4, n: 3 }
    );
    assert_eq!(
        b.add_edge(2, 2).unwrap_err(),
        GraphError::SelfLoop { node: 2 }
    );
    // The range is the current vertex count, grown by `add_node`.
    b.add_node();
    assert_eq!(
        b.add_edge(3, 3).unwrap_err(),
        GraphError::SelfLoop { node: 3 }
    );
    assert_eq!(
        b.add_edge(0, 4).unwrap_err(),
        GraphError::NodeOutOfRange { node: 4, n: 4 }
    );
}

#[test]
fn first_bad_edge_in_iteration_order_decides_the_error() {
    assert_eq!(
        Graph::from_edges(3, [(0, 1), (2, 2), (0, 9), (8, 8)]),
        Err(GraphError::SelfLoop { node: 2 })
    );
    assert_eq!(
        Graph::from_edges(3, [(0, 1), (0, 9), (2, 2), (7, 0)]),
        Err(GraphError::NodeOutOfRange { node: 9, n: 3 })
    );
    assert_eq!(
        Graph::from_edges(3, [(1, 0), (7, 9), (0, 9)]),
        Err(GraphError::NodeOutOfRange { node: 7, n: 3 })
    );
    let base = Graph::from_edges(3, [(0, 1)]).unwrap();
    assert_eq!(
        base.with_edges([(1, 2), (1, 1), (5, 0)]),
        Err(GraphError::SelfLoop { node: 1 })
    );
}
