//! # fedclust-tensor
//!
//! A small, dependency-light dense tensor library used as the numerical
//! substrate for the FedClust reproduction. It provides exactly what the
//! neural-network and clustering layers above it need:
//!
//! * row-major `f32` tensors with shape/stride bookkeeping ([`Tensor`]),
//! * cache-blocked matrix multiplication on the calling thread ([`matmul`]),
//! * `im2col`/`col2im` lowering for convolutions ([`conv`]),
//! * numerically stable softmax / log-softmax and reductions ([`ops`]),
//! * one-sided Jacobi SVD and principal angles for PACFL ([`linalg`]),
//! * L2 / cosine distances between weight vectors ([`distance`]),
//! * Xavier/He initialisation and deterministic RNG derivation ([`init`],
//!   [`rng`]).
//!
//! Nothing here forks: every kernel runs on the thread that calls it, and
//! the parallelism is the map over clients above (DESIGN.md §6).
//!
//! The library is deliberately *not* an autograd engine: backpropagation is
//! implemented layer-by-layer in `fedclust-nn`, which keeps this crate a
//! plain, easily testable array toolkit.

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

pub mod conv;
pub mod distance;
pub mod init;
pub mod linalg;
pub mod matmul;
pub mod ops;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use shape::Shape;
pub use tensor::Tensor;
