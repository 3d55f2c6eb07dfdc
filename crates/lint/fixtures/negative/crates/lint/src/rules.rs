//! Negative fixture: each rule name spelled once, as its row of `RULES`.

pub const RULES: [Rule; 2] = [
    Rule {
        name: "float-eq",
        pass: Pass::File(rule_float_eq),
    },
    Rule {
        name: "pool-discipline",
        pass: Pass::File(pool_discipline),
    },
];
