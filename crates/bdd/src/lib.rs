//! Reduced ordered binary decision diagrams (ROBDDs) for activation-pattern
//! monitors.
//!
//! This crate is the storage substrate of the *runtime neuron activation
//! pattern monitoring* approach (Cheng, Nührenberg, Yasuoka; DATE 2019): a
//! set of binary neuron on/off patterns `{0,1}^d` is stored as the
//! characteristic function of a BDD with `d` variables.  The paper's
//! `γ`-comfort-zone construction (Algorithm 1) enlarges a stored set with all
//! patterns within Hamming distance `γ`, which the paper states as `γ` rounds
//! of `∨_j ∃x_j . f`.  [`Bdd::dilate`] builds that same set in one memoised
//! pass over `(node, radius)`; [`Bdd::exists`] remains available as the
//! paper's primitive.
//!
//! # Design
//!
//! * One [`Bdd`] manager owns an arena of hash-consed nodes, so structural
//!   equality coincides with semantic equality and membership queries walk at
//!   most one node per variable (the paper's "linear in the number of
//!   monitored neurons" claim).
//! * Functions are referenced by [`NodeId`]; they stay valid for the lifetime
//!   of the manager (arena allocation, no garbage collection — monitors are
//!   built once and then queried).
//! * All boolean connectives are memoised through an operation cache.
//! * The variable order is part of the manager ([`Bdd::with_order`]) and of
//!   every [`BddSnapshot`]; assignments, patterns and queries are always
//!   indexed by variable, so the order changes a diagram's size, never its
//!   meaning.  [`Bdd::union_of_cubes`] builds a pattern set bottom-up in
//!   any order; [`Bdd::reorder`] re-expresses finished diagrams in another.
//!
//! # Example
//!
//! ```
//! use naps_bdd::Bdd;
//!
//! let mut bdd = Bdd::new(3);
//! // Store the pattern set {001}.
//! let f = bdd.cube_from_bools(&[false, false, true]);
//! // Enlarge by Hamming distance 1 (Algorithm 1, lines 9–14 with γ = 1).
//! let z1 = bdd.dilate(f, 1);
//! assert!(bdd.eval(z1, &[false, false, true]));  // the seed
//! assert!(bdd.eval(z1, &[true, false, true]));   // distance 1
//! assert!(!bdd.eval(z1, &[true, true, true]));   // distance 2
//! ```

mod compiled;
mod error;
mod fxhash;
mod hamming;
mod manager;
mod ops;
mod quant;
mod reorder;
mod sat;
mod serialize;

pub use compiled::{
    bit_slice_block, pack_words, CompiledPath, CompiledZone, SMALL_ZONE_MAX_PATTERNS,
};
pub use error::BddError;
pub use manager::{Bdd, BddStats, NodeId, VarId};
pub use serialize::BddSnapshot;
