//! `fedclust-chaos` binary: thin shell around
//! [`fedclust_cli::chaos::run_chaos`].

use fedclust_cli::{chaos::run_chaos, net_args::ChaosArgs, shell};

fn main() {
    shell(ChaosArgs::parse, |args| {
        run_chaos(args).map(|()| String::new())
    });
}
