//! # fedclust-nn
//!
//! A from-scratch neural-network library with explicit, layer-by-layer
//! backpropagation — the training substrate the FedClust reproduction runs
//! on (the paper used PyTorch; see DESIGN.md for the substitution argument).
//!
//! Contents:
//!
//! * [`param::Param`] — a weight tensor paired with its gradient,
//! * [`layer::Layer`] — the forward/backward object-safe layer trait,
//! * layers: dense, conv2d (im2col), max/avg pooling, ReLU, batch-norm,
//!   flatten, residual blocks, and [`layer::Sequential`] composition,
//! * [`loss`] — softmax cross-entropy with fused gradient,
//! * [`optim::Sgd`] — SGD with momentum, weight decay and the FedProx
//!   proximal term,
//! * [`model::Model`] — a parameter-addressable network wrapper (flatten /
//!   unflatten of all weights, per-layer weight views, final-layer
//!   extraction — the object FedClust clusters on),
//! * [`models`] — the model zoo: MLP, LeNet-5-like, VGG-mini,
//!   ResNet-9-like.

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

pub mod activation;
pub mod conv2d;
pub mod dense;
pub mod layer;
pub mod loss;
pub mod model;
pub mod models;
pub mod norm;
pub mod optim;
pub mod param;
pub mod pool;
pub mod structural;

pub use layer::{Layer, Sequential};
pub use model::Model;
pub use optim::Sgd;
pub use param::Param;
