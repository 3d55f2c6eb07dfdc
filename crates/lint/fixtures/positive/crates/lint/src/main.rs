//! Positive fixture: the CLI spells a rule name instead of taking it from
//! `RULES` (`confinement`, one rule table @5).

fn main() {
    let _ = explain("float-eq");
}
