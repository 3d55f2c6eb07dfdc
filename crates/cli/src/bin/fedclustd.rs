//! `fedclustd` binary: thin shell around [`fedclust_cli::net::serve`].

use fedclust_cli::{net::serve, net_args::ServeArgs, shell};

fn main() {
    shell(ServeArgs::parse, serve);
}
