//! Negative fixture: each rule name spelled once, as its row of `RULES`.

pub const RULES: [Rule; 2] = [
    Rule {
        name: "float-eq",
        pass: Pass::File(rule_float_eq),
    },
    Rule {
        name: "rng-stream-discipline",
        pass: Pass::File(rule_rng_stream_discipline),
    },
];
