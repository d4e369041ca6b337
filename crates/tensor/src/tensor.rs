use std::fmt;
use std::ops::Range;

use rand::distributions::Distribution;
use rand::Rng;

use crate::{Result, Shape, TensorError};

/// A dense, row-major, owned `f32` tensor.
///
/// # Example
///
/// ```
/// use primepar_tensor::Tensor;
///
/// let t = Tensor::zeros(vec![2, 2]);
/// assert_eq!(t.shape().volume(), 4);
/// assert_eq!(t.get(&[1, 1]), 0.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = vec![0.0; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from the
    /// shape volume.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.volume() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a square identity matrix of extent `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor with elements drawn from a normal distribution
    /// `N(0, std²)` using the supplied RNG (deterministic given a seeded RNG).
    pub fn randn<R: Rng + ?Sized>(shape: impl Into<Shape>, std: f32, rng: &mut R) -> Self {
        let shape = shape.into();
        let normal = StandardNormal;
        let data = (0..shape.volume())
            .map(|_| normal.sample(rng) * std)
            .collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds (debug builds check each coordinate).
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds (debug builds check each coordinate).
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Reinterprets the buffer under a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if volumes differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Extracts the sub-block covered by per-dimension half-open ranges.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `ranges.len() != self.rank()` and
    /// [`TensorError::OutOfBounds`] if any range exceeds its dimension.
    pub fn slice(&self, ranges: &[Range<usize>]) -> Result<Tensor> {
        if ranges.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                op: "slice",
                expected: self.rank(),
                actual: ranges.len(),
            });
        }
        for (dim, r) in ranges.iter().enumerate() {
            if r.end > self.shape.dim(dim) || r.start > r.end {
                return Err(TensorError::OutOfBounds {
                    dim,
                    range: (r.start, r.end),
                    extent: self.shape.dim(dim),
                });
            }
        }
        let out_dims: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
        let out_shape = Shape::new(out_dims);
        let mut out = Tensor::zeros(out_shape.clone());
        let strides = self.shape.strides();
        copy_block(
            &self.data,
            &strides,
            ranges,
            &mut out.data,
            &out_shape.strides(),
            true,
        );
        Ok(out)
    }

    /// Writes `block` into the region covered by `ranges` (inverse of [`Tensor::slice`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the ranges are invalid or the block shape does not
    /// match the range extents.
    pub fn write_slice(&mut self, ranges: &[Range<usize>], block: &Tensor) -> Result<()> {
        if ranges.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                op: "write_slice",
                expected: self.rank(),
                actual: ranges.len(),
            });
        }
        for (dim, r) in ranges.iter().enumerate() {
            if r.end > self.shape.dim(dim) || r.start > r.end {
                return Err(TensorError::OutOfBounds {
                    dim,
                    range: (r.start, r.end),
                    extent: self.shape.dim(dim),
                });
            }
            if r.end - r.start != block.shape.dim(dim) {
                return Err(TensorError::ShapeMismatch {
                    op: "write_slice",
                    lhs: ranges.iter().map(|r| r.end - r.start).collect(),
                    rhs: block.shape.dims().to_vec(),
                });
            }
        }
        let strides = self.shape.strides();
        let mut data = std::mem::take(&mut self.data);
        copy_block(
            &block.data,
            &block.shape.strides(),
            ranges,
            &mut data,
            &strides,
            false,
        );
        self.data = data;
        Ok(())
    }

    /// `true` when every element differs from `other` by at most `tol` and shapes match.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }

    /// Largest absolute element-wise difference from `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "max_abs_diff requires equal shapes"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{} elements]", self.data.len())
        }
    }
}

/// Recursively copies between a strided region of `src` and `dst`.
///
/// `src_to_dst == true` copies the `ranges` region of `src` into the dense `dst`,
/// otherwise copies the dense `src` into the `ranges` region of `dst`.
fn copy_block(
    src: &[f32],
    src_strides: &[usize],
    ranges: &[Range<usize>],
    dst: &mut [f32],
    dst_strides: &[usize],
    src_to_dst: bool,
) {
    #[allow(clippy::too_many_arguments)] // recursion carries explicit cursor state
    fn rec(
        src: &[f32],
        src_strides: &[usize],
        ranges: &[Range<usize>],
        dst: &mut [f32],
        dst_strides: &[usize],
        dim: usize,
        src_off: usize,
        dst_off: usize,
        src_to_dst: bool,
    ) {
        if dim == ranges.len() {
            if src_to_dst {
                dst[dst_off] = src[src_off];
            } else {
                dst[src_off] = src[dst_off];
            }
            return;
        }
        // `src_to_dst`: strided side is src; otherwise strided side is dst.
        let r = &ranges[dim];
        if dim == ranges.len() - 1 {
            // Contiguous innermost dimension: bulk copy.
            let len = r.end - r.start;
            if src_to_dst {
                let s = src_off + r.start * src_strides[dim];
                dst[dst_off..dst_off + len].copy_from_slice(&src[s..s + len]);
            } else {
                let s = src_off + r.start * src_strides[dim];
                dst[s..s + len].copy_from_slice(&src[dst_off..dst_off + len]);
            }
            return;
        }
        for (j, i) in r.clone().enumerate() {
            rec(
                src,
                src_strides,
                ranges,
                dst,
                dst_strides,
                dim + 1,
                src_off + i * src_strides[dim],
                dst_off + j * dst_strides[dim],
                src_to_dst,
            );
        }
    }
    if src_to_dst {
        rec(src, src_strides, ranges, dst, dst_strides, 0, 0, 0, true);
    } else {
        // Swap roles: the "strided" buffer is dst. Reuse rec by flipping the flag:
        // in rec with src_to_dst=false, `dst[src_off]` writes the strided side and
        // `src[dst_off]` reads the dense side, so pass (dense=src, strided=dst).
        rec(src, dst_strides, ranges, dst, src_strides, 0, 0, 0, false);
    }
}

/// Marsaglia polar method standard normal sampler (avoids an external
/// distribution dependency).
struct StandardNormal;

impl Distribution<f32> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        loop {
            let u: f32 = rng.gen_range(-1.0f32..1.0);
            let v: f32 = rng.gen_range(-1.0f32..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(vec![3, 3]);
        assert_eq!(z.sum(), 0.0);
        let f = Tensor::full(vec![2, 2], 2.5);
        assert_eq!(f.sum(), 10.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn eye_diagonal() {
        let i = Tensor::eye(3);
        assert_eq!(i.get(&[0, 0]), 1.0);
        assert_eq!(i.get(&[0, 1]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.set(&[1, 2], 7.0);
        assert_eq!(t.get(&[1, 2]), 7.0);
        assert_eq!(t.get(&[0, 2]), 0.0);
    }

    #[test]
    fn slice_extracts_block() {
        let t = Tensor::from_vec(vec![3, 3], (0..9).map(|x| x as f32).collect()).unwrap();
        let b = t.slice(&[1..3, 0..2]).unwrap();
        assert_eq!(b.shape().dims(), &[2, 2]);
        assert_eq!(b.data(), &[3.0, 4.0, 6.0, 7.0]);
    }

    #[test]
    fn slice_bounds_checked() {
        let t = Tensor::zeros(vec![2, 2]);
        assert!(matches!(
            t.slice(&[0..3, 0..2]),
            Err(TensorError::OutOfBounds { dim: 0, .. })
        ));
        #[allow(clippy::single_range_in_vec_init)] // deliberately wrong rank
        let short: [std::ops::Range<usize>; 1] = [0..1];
        assert!(matches!(
            t.slice(&short),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn write_slice_roundtrip() {
        let t = Tensor::from_vec(vec![4, 4], (0..16).map(|x| x as f32).collect()).unwrap();
        let block = t.slice(&[1..3, 2..4]).unwrap();
        let mut out = Tensor::zeros(vec![4, 4]);
        out.write_slice(&[1..3, 2..4], &block).unwrap();
        assert_eq!(out.get(&[1, 2]), 6.0);
        assert_eq!(out.get(&[2, 3]), 11.0);
        assert_eq!(out.get(&[0, 0]), 0.0);
    }

    #[test]
    fn write_slice_rejects_shape_mismatch() {
        let mut t = Tensor::zeros(vec![4, 4]);
        let block = Tensor::zeros(vec![2, 3]);
        assert!(t.write_slice(&[0..2, 0..2], &block).is_err());
    }

    #[test]
    fn slice_3d_block() {
        let t = Tensor::from_vec(vec![2, 3, 4], (0..24).map(|x| x as f32).collect()).unwrap();
        let b = t.slice(&[1..2, 1..3, 2..4]).unwrap();
        assert_eq!(b.shape().dims(), &[1, 2, 2]);
        assert_eq!(b.data(), &[18.0, 19.0, 22.0, 23.0]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Tensor::randn(vec![8], 1.0, &mut r1);
        let b = Tensor::randn(vec![8], 1.0, &mut r2);
        assert!(a.allclose(&b, 0.0));
    }

    #[test]
    fn randn_has_roughly_unit_scale() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(vec![10_000], 1.0, &mut rng);
        let mean = t.sum() / 10_000.0;
        let var = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![6], (0..6).map(|x| x as f32).collect()).unwrap();
        let r = t.reshape(vec![2, 3]).unwrap();
        assert_eq!(r.get(&[1, 2]), 5.0);
        assert!(t.reshape(vec![4]).is_err());
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::full(vec![2], 1.0);
        let b = Tensor::full(vec![2], 1.0 + 1e-7);
        assert!(a.allclose(&b, 1e-6));
        let c = Tensor::full(vec![2], 1.1);
        assert!(!a.allclose(&c, 1e-6));
    }

    #[test]
    fn debug_is_never_empty() {
        let t = Tensor::zeros(vec![100]);
        assert!(!format!("{t:?}").is_empty());
    }
}
