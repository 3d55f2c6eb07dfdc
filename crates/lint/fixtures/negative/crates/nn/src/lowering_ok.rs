//! Negative fixture: the per-call lowering adapters may be defined and
//! imported, and test code may call them as an oracle; product code
//! lowers through a layer's tap table.

use fedclust_tensor::conv::{col2im_batch_into, im2col_batch_into, TapTable};

pub fn im2col_batch_into(batch: &[f32], b: usize, geom: &Conv2dGeom, out: &mut [f32]) {
    TapTable::new(geom).im2col_into(batch, b, out);
}

pub fn forward(taps: &TapTable, x: &[f32], b: usize, cols: &mut [f32]) {
    taps.im2col_into(x, b, cols);
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_adapters_agree_with_the_table() {
        super::im2col_batch_into(&x, 1, &g, &mut cols);
        col2im_batch_into(&cols, 1, &g, &mut x);
    }
}

// fedlint-fixture: covers confinement
