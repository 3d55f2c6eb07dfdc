//! # fedclust-data
//!
//! Synthetic federated image-classification datasets and non-IID
//! partitioners.
//!
//! The paper evaluates on CIFAR-10, CIFAR-100, FMNIST and SVHN. Real
//! datasets are not available offline, so this crate provides
//! class-conditional synthetic generators with matching *structure* — the
//! phenomena the paper measures (client drift under label skew, classifier
//! weights encoding local label distributions) depend on the label geometry
//! across clients, not on natural-image statistics; DESIGN.md §2 documents
//! the substitution in full.
//!
//! Pipeline:
//!
//! 1. pick a [`profiles::DatasetProfile`] (e.g. `Cifar10Like`),
//! 2. synthesise a pooled dataset with [`synth::generate_pool`],
//! 3. split it across clients with a [`partition::Partition`] strategy
//!    (IID, label-skew δ%, Dirichlet α),
//! 4. obtain a [`federated::FederatedDataset`] of per-client train/test
//!    splits.

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

pub mod dataset;
pub mod federated;
pub mod partition;
pub mod profiles;
pub mod synth;

pub use dataset::{ClientData, Dataset};
pub use federated::FederatedDataset;
pub use partition::Partition;
pub use profiles::DatasetProfile;
