//! `fedclust-cli` binary: thin shell around [`fedclust_cli`].

use fedclust_cli::{execute, shell, Args};

fn main() {
    shell(Args::parse, |args| execute(args, None));
}
