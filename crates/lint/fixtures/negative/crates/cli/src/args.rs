//! Negative fixture: flags in the shapes the flag tables allow — each once
//! per table (the same flag in two tables is fine), `"--help"` outside any,
//! and test code free to spell them again.

const RUN: &[Flag<Args>] = &[flag("--rounds", set_rounds), flag("--seed", set_seed)];
const SERVE: &[Flag<ServeArgs>] = &[flag("--seed", set_seed)];

fn is_help(arg: &str) -> bool {
    arg == "--help"
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses() {
        assert!(super::parse(&["--rounds", "3", "--seed", "7"]).is_ok());
    }
}
