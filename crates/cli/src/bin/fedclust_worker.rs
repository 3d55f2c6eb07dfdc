//! `fedclust-worker` binary: thin shell around
//! [`fedclust_cli::worker::run_worker`].

use fedclust_cli::{net_args::WorkerArgs, shell, worker::run_worker};

fn main() {
    shell(WorkerArgs::parse, |args| {
        run_worker(args).map(|()| String::new())
    });
}
