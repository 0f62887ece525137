//! Simple undirected graphs.
//!
//! [`Graph`] is the single graph type used across the workspace: simple
//! (no parallel edges), loopless, undirected, with vertices indexed by
//! [`NodeId`] in `0..n`. Construction goes through [`GraphBuilder`], which
//! validates edges, or through the convenience constructor
//! [`Graph::from_edges`].
//!
//! The builder keeps a flat edge list and lays out the CSR arrays once,
//! in `build()`: a degree count, a prefix sum, a scatter of both
//! orientations of every edge, then an in-place sort and dedup of each
//! adjacency slice: `O(n + m log Δ)` and no allocation per edge,
//! whatever the edge order or the number of duplicates.

use crate::node::NodeId;
use std::error::Error;
use std::fmt;

/// Error produced when constructing an invalid graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: usize,
        /// The number of vertices in the graph under construction.
        n: usize,
    },
    /// An edge joins a vertex to itself.
    SelfLoop {
        /// The vertex carrying the loop.
        node: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} vertices")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at vertex {node}"),
        }
    }
}

impl Error for GraphError {}

/// A simple, undirected, loopless graph in CSR (compressed sparse row)
/// form.
///
/// Vertices are `NodeId(0) .. NodeId(n-1)`. Adjacency is stored as two
/// flat arrays: `offsets` (length `n + 1`) and `neighbors` (length `2m`),
/// with the neighbors of `v` at `neighbors[offsets[v]..offsets[v + 1]]`,
/// sorted and deduplicated. Iteration order is deterministic and
/// [`Graph::has_edge`] is a binary search; the flat layout keeps neighbor
/// scans on one cache line run instead of chasing per-vertex heap
/// allocations.
///
/// # Example
///
/// ```
/// use locert_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
/// assert_eq!(g.num_nodes(), 4);
/// assert_eq!(g.num_edges(), 3);
/// assert!(g.has_edge(1.into(), 2.into()));
/// assert!(!g.has_edge(0.into(), 3.into()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors`; length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists; length `2 * num_edges`.
    neighbors: Vec<NodeId>,
    num_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// Duplicate edges are silently merged (the graph is simple).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] if an edge joins a vertex to itself.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let edges = edges.into_iter();
        let mut b = GraphBuilder::new(n);
        b.edges.reserve(edges.size_hint().0);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterator over all vertices in increasing index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId)
    }

    /// Sorted neighbors of `v`, as a slice of the shared CSR array.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v.0]..self.offsets[v.0 + 1]]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.0 + 1] - self.offsets[v.0]
    }

    /// Whether the edge `{u, v}` is present. `O(log deg)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all edges `(u, v)` with `u < v`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| (u, v))
        })
    }

    /// Whether the graph is connected. The empty graph is not connected
    /// (the paper only considers non-empty connected graphs).
    pub fn is_connected(&self) -> bool {
        crate::traversal::is_connected(self)
    }

    /// Whether the graph is a tree (connected with `n - 1` edges).
    pub fn is_tree(&self) -> bool {
        self.num_nodes() >= 1 && self.num_edges() == self.num_nodes() - 1 && self.is_connected()
    }

    /// The subgraph induced by `keep`, together with the mapping from new
    /// indices to old indices.
    ///
    /// Vertices of the result are renumbered `0..keep.len()` following the
    /// sorted order of `keep`; the returned vector maps each new [`NodeId`]
    /// to its original one.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut old_of_new = keep.to_vec();
        old_of_new.sort_unstable();
        old_of_new.dedup();
        let mut new_of_old = vec![usize::MAX; self.num_nodes()];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old.0] = new;
        }
        let mut b = GraphBuilder::new(old_of_new.len());
        for &old_u in &old_of_new {
            for &old_v in self.neighbors(old_u) {
                if old_u < old_v && new_of_old[old_v.0] != usize::MAX {
                    b.add_edge(new_of_old[old_u.0], new_of_old[old_v.0])
                        .expect("induced edges are valid by construction");
                }
            }
        }
        (b.build(), old_of_new)
    }

    /// Disjoint union of two graphs; vertices of `other` are shifted by
    /// `self.num_nodes()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let off = self.num_nodes();
        let mut b = GraphBuilder::new(off + other.num_nodes());
        for (u, v) in self.edges() {
            b.add_edge(u.0, v.0).expect("valid");
        }
        for (u, v) in other.edges() {
            b.add_edge(u.0 + off, v.0 + off).expect("valid");
        }
        b.build()
    }

    /// Returns a copy of this graph with the additional `edges`.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::from_edges`].
    pub fn with_edges<I>(&self, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut b = GraphBuilder::new(self.num_nodes());
        for (u, v) in self.edges() {
            b.add_edge(u.0, v.0)?;
        }
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }
}

/// Incremental, validating builder for [`Graph`].
///
/// Edges are validated as they arrive and kept as a flat list;
/// duplicates and both orientations of an edge are merged by
/// [`GraphBuilder::build`].
///
/// # Example
///
/// ```
/// use locert_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), locert_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices of the graph under construction.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`. Adding an existing edge is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] (for `u` before `v`) or
    /// [`GraphError::SelfLoop`].
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<&mut Self, GraphError> {
        let n = self.n;
        if u >= n {
            return Err(GraphError::NodeOutOfRange { node: u, n });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfRange { node: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.edges.push((NodeId(u), NodeId(v)));
        Ok(self)
    }

    /// Appends a fresh isolated vertex and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.n += 1;
        NodeId(self.n - 1)
    }

    /// Finalizes the graph: counting-sort the edge list into CSR form,
    /// then sort and dedup each adjacency slice in place.
    pub fn build(self) -> Graph {
        let n = self.n;
        // offsets[v + 1] = degree of v with multiplicity, then prefix sums.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u.0 + 1] += 1;
            offsets[v.0 + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets[..n].to_vec();
        let mut neighbors = vec![NodeId(0); offsets[n]];
        for &(u, v) in &self.edges {
            neighbors[fill[u.0]] = v;
            fill[u.0] += 1;
            neighbors[fill[v.0]] = u;
            fill[v.0] += 1;
        }
        // Sort each slice and compact its distinct entries leftwards;
        // `kept` never passes the slice being read, so one array serves.
        let mut kept = 0;
        let mut start = 0;
        for v in 0..n {
            let end = offsets[v + 1];
            neighbors[start..end].sort_unstable();
            offsets[v] = kept;
            for i in start..end {
                if i == start || neighbors[i] != neighbors[i - 1] {
                    neighbors[kept] = neighbors[i];
                    kept += 1;
                }
            }
            start = end;
        }
        offsets[n] = kept;
        neighbors.truncate(kept);
        neighbors.shrink_to_fit();
        Graph {
            offsets,
            neighbors,
            num_edges: kept / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.is_connected());
    }

    #[test]
    fn from_edges_dedups() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Graph::from_edges(2, [(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(
            Graph::from_edges(2, [(0, 2)]),
            Err(GraphError::NodeOutOfRange { node: 2, n: 2 })
        );
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(4, [(2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(g.degree(NodeId(2)), 3);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn edges_iterates_once_per_edge() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[0], (NodeId(0), NodeId(1)));
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn is_tree_recognizes_paths_and_rejects_cycles() {
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(path.is_tree());
        let cycle = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(!cycle.is_tree());
        let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!disconnected.is_tree());
    }

    #[test]
    fn single_vertex_is_tree() {
        let g = Graph::empty(1);
        assert!(g.is_connected());
        assert!(g.is_tree());
    }

    #[test]
    fn induced_subgraph_renumbers() {
        // Path 0-1-2-3, keep {0, 2, 3}: edge 2-3 survives as 1-2.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let (h, map) = g.induced_subgraph(&[NodeId(3), NodeId(0), NodeId(2)]);
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.num_edges(), 1);
        assert_eq!(map, vec![NodeId(0), NodeId(2), NodeId(3)]);
        assert!(h.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn disjoint_union_shifts() {
        let a = Graph::from_edges(2, [(0, 1)]).unwrap();
        let b = Graph::from_edges(3, [(0, 2)]).unwrap();
        let u = a.disjoint_union(&b);
        assert_eq!(u.num_nodes(), 5);
        assert_eq!(u.num_edges(), 2);
        assert!(u.has_edge(NodeId(0), NodeId(1)));
        assert!(u.has_edge(NodeId(2), NodeId(4)));
    }

    #[test]
    fn with_edges_extends() {
        let a = Graph::from_edges(3, [(0, 1)]).unwrap();
        let b = a.with_edges([(1, 2)]).unwrap();
        assert_eq!(b.num_edges(), 2);
        assert!(b.is_tree());
    }

    #[test]
    fn builder_add_node() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_node();
        assert_eq!(v, NodeId(1));
        b.add_edge(0, 1).unwrap();
        assert!(b.build().is_tree());
    }
}
