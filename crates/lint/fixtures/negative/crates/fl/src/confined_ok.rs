//! Negative fixture: the shapes `confinement` must not match — a shape in
//! a comment or a string is no code, and a `fn` right before it makes a
//! definition, not a call.

// The FNV-1a offset basis 0xcbf29ce484222325, #[derive(Serialize)], in a comment.

/* transport.broadcast(&clients) in a block comment */

pub fn describe() -> &'static str {
    "transport.broadcast(&clients), BaseCodec::Raw and codec.is_none() in a string"
}

pub fn sample_clients(m: usize) -> usize {
    m
}

// fedlint-fixture: covers confinement
