//! Dynamic labeled graph substrate for incrementalized graph algorithms.
//!
//! This crate provides everything below the fixpoint framework of
//! `incgraph-core`: a mutable adjacency-list graph ([`DynamicGraph`])
//! supporting edge insertions and deletions, batched updates with effective
//! op recording and inversion ([`UpdateBatch`], [`AppliedBatch`]), pattern
//! graphs for graph simulation ([`Pattern`]), and synthetic graph
//! generators ([`gen`]) used as laptop-scale stand-ins for the real-life
//! datasets of the paper (LiveJournal, Orkut, Twitter, Friendster,
//! DBPedia, Wiki-DE).
//!
//! Graphs are `G = (V, E, L)`: nodes carry a [`Label`], edges carry a
//! [`Weight`] (interpreted as a length by SSSP and ignored elsewhere).
//! Both directed and undirected graphs are supported by a single type;
//! undirected edges are mirrored into both incident adjacency lists.

pub mod gen;
pub mod ids;
pub mod io;
pub mod pattern;
pub mod rng;
pub mod store;
pub mod update;

pub use ids::{Label, NodeId, Weight};
pub use pattern::Pattern;
pub use store::DynamicGraph;
pub use update::{AppliedBatch, AppliedOp, BatchError, Update, UpdateBatch};
