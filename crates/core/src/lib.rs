//! # fedclust
//!
//! FedClust: one-shot, weight-driven clustered federated learning —
//! a Rust reproduction of *"FedClust: Tackling Data Heterogeneity in
//! Federated Learning through Weight-Driven Client Clustering"*
//! (Islam et al., ICPP 2024).
//!
//! The method in one paragraph: after a single warm-up round in which every
//! client briefly trains the broadcast initial model on its own data, each
//! client uploads only the **final-layer weights and bias** of its local
//! model. Those partial weights implicitly encode the client's label
//! distribution, so the server can build an L2 proximity matrix (Eq. 3),
//! run agglomerative hierarchical clustering with a distance threshold λ
//! (Algorithm 1), and obtain a data-driven number of clusters in **one
//! shot** — no predefined cluster count, no repeated re-clustering rounds.
//! From then on training is per-cluster FedAvg (Eq. 2). Newcomers are
//! assigned to the closest cluster by the same partial-weight distance
//! (Algorithm 2, Eq. 4).
//!
//! Crate layout:
//!
//! * [`proximity`] — which partial weights clients upload, and the Eq. 3
//!   proximity matrix;
//! * [`clustering`] — the λ-threshold hierarchical clustering step with
//!   fixed or data-driven (plateau or largest-gap) λ selection;
//! * [`algorithm`] — [`algorithm::FedClust`], the full method as an
//!   [`fedclust_fl::FlMethod`], whose round 0 ([`FedClust::round0`]) is the
//!   one warm-up, plus [`algorithm::TrainedFederation`] for post-hoc use of
//!   the trained cluster models;
//! * [`newcomer`] — Algorithm 2's Eq. 4 assignment of clients that join
//!   after federation;
//! * [`lambda_sweep`] — the generalization/personalization trade-off sweep
//!   behind Fig. 4.
//!
//! # Quickstart
//!
//! ```
//! use fedclust::algorithm::FedClust;
//! use fedclust_data::{DatasetProfile, FederatedDataset, Partition};
//! use fedclust_fl::{FlConfig, FlMethod};
//!
//! // A small federation: 8 clients, each holding 20% of the labels.
//! let dataset = FederatedDataset::build(
//!     DatasetProfile::FmnistLike,
//!     Partition::LabelSkew { fraction: 0.2 },
//!     &fedclust_data::federated::FederatedConfig {
//!         num_clients: 8,
//!         samples_per_class: 30,
//!         train_fraction: 0.8,
//!         seed: 1,
//!     },
//! );
//! let mut cfg = FlConfig::tiny(1);
//! cfg.rounds = 3;
//! let result = FedClust::default().run(&dataset, &cfg);
//! assert!(result.final_acc > 0.0);
//! assert!(result.num_clusters.unwrap() >= 1);
//! ```

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

pub mod algorithm;
pub mod clustering;
pub mod lambda_sweep;
pub mod newcomer;
pub mod persist;
pub mod proximity;

pub use algorithm::{FedClust, TrainedFederation};
pub use clustering::LambdaSelect;
pub use persist::{RestoreError, SavedFederation};
