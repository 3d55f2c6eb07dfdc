//! Workspace umbrella crate: re-exports the FedClust reproduction stack so
//! examples and integration tests can use a single dependency.
pub use fedclust;
pub use fedclust_cluster as cluster;
pub use fedclust_data as data;
pub use fedclust_fl as fl;
pub use fedclust_nn as nn;
pub use fedclust_proto as proto;
pub use fedclust_tensor as tensor;
