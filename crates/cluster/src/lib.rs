//! # fedclust-cluster
//!
//! Agglomerative hierarchical clustering and cluster-quality metrics — the
//! server-side machinery of FedClust's one-shot clustering step
//! (Algorithm 1 of the paper) and of the PACFL baseline.
//!
//! * [`proximity::ProximityMatrix`] — a symmetric pairwise-distance matrix,
//! * [`hac`] — bottom-up agglomerative clustering with single / complete /
//!   average / Ward linkage (Lance–Williams updates), threshold (λ) and
//!   k-cluster cuts, and dendrogram export,
//! * [`metrics`] — adjusted Rand index, normalised mutual information and
//!   purity, used to validate recovered clusters against ground truth.

// Library code does not panic, and compares floats exactly only with a
// stated reason; binaries and tests are exempt (DESIGN.md §8).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::float_cmp
    )
)]

pub mod hac;
pub mod metrics;
pub mod proximity;

pub use hac::{Dendrogram, Linkage};
pub use proximity::ProximityMatrix;
