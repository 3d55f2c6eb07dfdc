//! Shape and stride bookkeeping for row-major tensors.

use std::fmt;

/// The shape of a tensor: a small vector of dimension extents.
///
/// Shapes are row-major ("C order"): the last dimension is contiguous in
/// memory. A scalar is represented by the empty shape.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Create a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for a scalar).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Linear row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    /// Panics in debug builds if the index is out of bounds or has the wrong
    /// arity.
    #[inline]
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.0.len(), "index arity mismatch");
        let mut off = 0;
        let mut stride = 1;
        for i in (0..self.0.len()).rev() {
            debug_assert!(index[i] < self.0[i], "index out of bounds");
            off += index[i] * stride;
            stride *= self.0[i];
        }
        off
    }

    /// View as a slice of extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_empty_shape_is_one() {
        assert_eq!(Shape::new(&[]).numel(), 1);
    }

    #[test]
    fn numel_multiplies_extents() {
        assert_eq!(Shape::new(&[2, 3, 4]).numel(), 24);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[1, 0, 1]), 13);
    }

    #[test]
    fn from_array_and_vec() {
        let a: Shape = [2, 2].into();
        let b: Shape = vec![2, 2].into();
        assert_eq!(a, b);
    }
}
