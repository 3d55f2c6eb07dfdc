//! Positive fixture: a kernel crate's product code forks. The rule tests
//! assert exact lines — keep line numbers stable when editing.

use rayon::prelude::*; // kernels on the calling thread @4

pub fn scale_rows(rows: &mut [Vec<f32>], s: f32) {
    rows.par_iter_mut().for_each(|r| r.iter_mut().for_each(|x| *x *= s)); // @7
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_fork() {
        let rows: Vec<usize> = (0..4usize).into_par_iter().collect();
        assert_eq!(rows.len(), 4);
    }
}
