//! Graph substrate for the `locert` workspace.
//!
//! This crate provides every graph-theoretic building block the paper
//! *"What can be certified compactly?"* (Bousquet–Feuilloley–Pierron,
//! PODC 2022) relies on:
//!
//! - [`Graph`]: simple, undirected, loopless graphs in CSR form, built
//!   by counting sort from a validating [`GraphBuilder`];
//! - [`RootedTree`]: rooted trees extracted from tree-shaped graphs, with
//!   depth bookkeeping;
//! - canonical forms ([`canon`]): AHU codes, rooted/unrooted tree
//!   isomorphism, and tree centers;
//! - fixed-point-free automorphisms of trees ([`automorphism`]), the
//!   non-MSO property of Theorem 2.3;
//! - content digests over the canonical edge list ([`digest`]), the
//!   cache key of the `locert-serve` certificate cache;
//! - minor checks for paths and cycles ([`minors`]), used by Corollary 2.7;
//! - deterministic and random generators ([`generators`]) for all the
//!   workloads in the experiment suite, including the paper's gadget
//!   families;
//! - enumeration and unranking of rooted trees of bounded depth
//!   ([`enumerate`]), the injection used by the Theorem 2.3 lower bound;
//! - network identifier assignments ([`ids`]) in a polynomial range, as
//!   required by the certification model of Section 3.3.
//!
//! # Example
//!
//! ```
//! use locert_graph::{Graph, generators};
//!
//! let g: Graph = generators::path(7);
//! assert!(g.is_connected());
//! assert_eq!(g.num_edges(), 6);
//! ```

#![allow(clippy::manual_memcpy)]

pub mod automorphism;
pub mod bcc;
pub mod canon;
pub mod digest;
pub mod enumerate;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod io;
pub mod minors;
pub mod node;
pub mod rooted;
pub mod traversal;

pub use graph::{Graph, GraphBuilder, GraphError};
pub use ids::IdAssignment;
pub use node::{Ident, NodeId};
pub use rooted::RootedTree;
