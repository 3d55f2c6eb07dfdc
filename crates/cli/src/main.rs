//! `fedclust-cli` binary: thin shell around [`fedclust_cli`].

use fedclust_cli::{execute, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&argv) {
        Ok(args) => match execute(&args, None) {
            Ok(out) => println!("{}", out),
            Err(msg) => {
                eprintln!("error: {}", msg);
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("{}", e);
            std::process::exit(2);
        }
    }
}
