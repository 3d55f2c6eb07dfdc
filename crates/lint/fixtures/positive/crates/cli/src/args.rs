//! Positive fixture: a flag spelled twice in one table (@6) and once
//! outside any table (@10) (`confinement`, one flag table).

const RUN: &[Flag<Args>] = &[
    flag("--rounds", set_rounds),
    flag("--rounds", set_rounds),
];

fn is_seed(arg: &str) -> bool {
    arg == "--seed"
}
