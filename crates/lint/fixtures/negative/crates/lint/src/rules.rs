//! Negative fixture: each rule name spelled once, as its row of `RULES`.

pub const RULES: [Rule; 2] = [
    Rule {
        name: "float-eq",
        pass: Pass::File(rule_float_eq),
    },
    Rule {
        name: "no-panic-paths",
        pass: Pass::File(rule_no_panic_paths),
    },
];
