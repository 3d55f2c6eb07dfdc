//! The baseline FL methods the paper compares against.
//!
//! Each method is a [`crate::driver::Method`] impl — its server state and
//! one round's update rule — run by [`crate::driver::run_federation`], and
//! is boxed as an [`FlMethod`] so the experiment harnesses treat FedClust
//! and every baseline uniformly.

pub mod cfl;
pub mod feddyn;
pub mod global;
pub mod ifca;
pub mod lg;
pub mod local;
pub mod pacfl;
pub mod perfedavg;
pub mod scaffold;

pub use crate::driver::FlMethod;
pub use cfl::Cfl;
pub use feddyn::FedDyn;
pub use global::{FedAvg, FedNova, FedProx};
pub use ifca::Ifca;
pub use lg::LgFedAvg;
pub use local::LocalOnly;
pub use pacfl::Pacfl;
pub use perfedavg::PerFedAvg;
pub use scaffold::Scaffold;

/// All nine baselines with the paper's hyper-parameters, in table order.
/// (FedClust itself is provided by the `fedclust` crate.)
pub fn baselines() -> Vec<Box<dyn FlMethod>> {
    vec![
        Box::new(LocalOnly),
        Box::new(FedAvg),
        Box::new(FedProx),
        Box::new(FedNova),
        Box::new(LgFedAvg),
        Box::new(PerFedAvg),
        Box::new(Cfl),
        Box::new(Ifca::default()),
        Box::new(Pacfl),
    ]
}

/// Additional drift-mitigation methods the paper's §2.1 discusses but does
/// not put in its tables: SCAFFOLD (variance reduction via control
/// variates) and FedDyn (dynamic regularization).
pub fn extended_baselines() -> Vec<Box<dyn FlMethod>> {
    vec![Box::new(Scaffold), Box::new(FedDyn)]
}
