//! Negative fixture: superficially scary code that must produce ZERO
//! findings. It doubles as an integration test of the lexer's literal
//! awareness — every banned construct below appears only inside strings,
//! raw strings, char literals, comments, or test code, or carries a valid
//! allow pragma.

// Mentions in comments are fine: unwrap(), HashMap, unsafe, panic!, == 1.0

pub fn strings_hide_everything() -> (usize, char, &'static str) {
    let s = "x.unwrap() HashMap unsafe panic! == 1.0";
    let raw = r#"expect("x") HashSet todo! derive(seed, &[42]) != 0.5"#;
    let byte = b"unimplemented! seed_from_u64(7)";
    let ch = 'u'; // a char literal, not the start of `unwrap`
    (s.len() + raw.len() + byte.len(), ch, "done")
}

pub fn pragma_justified(x: f32) -> bool {
    // fedlint::allow(float-eq): fixture — exact-zero sentinel semantics
    x == 0.0
}

pub fn trailing_pragma(x: f32) -> bool {
    x == 0.0 // fedlint::allow(float-eq): fixture — same-line pragma form
}

pub fn good_rng(seed: u64) {
    let _rng = derive(seed, &[streams::SAMPLING, 3]); // named stream leads; round index after is fine
}

pub fn tolerant_compare(x: f32) -> bool {
    (x - 1.5).abs() < 1e-6
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_exempt() {
        let v: Option<f32> = Some(1.0);
        assert!(v.unwrap_or(0.0) == 1.0);
    }
}

// fedlint-fixture: covers rng-stream-discipline, float-eq, pragma-syntax
