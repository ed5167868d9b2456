//! Dense row-major `f32` tensor.

use rand::Rng;

use crate::error::TensorError;
use crate::gemm;
use crate::rng;
use crate::shape::Shape;
use crate::Result;

/// A dense, contiguous, row-major `f32` tensor.
///
/// All activations, weights and intermediate buffers in the reproduction
/// are `Tensor`s. The type never aliases storage: every operation either
/// mutates in place or returns a freshly allocated tensor, which keeps the
/// inference/training engines simple to reason about.
///
/// # Examples
///
/// ```
/// use flexiq_tensor::Tensor;
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c.data(), a.data());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(vec![]),
            data: vec![value],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not
    /// equal the shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Samples every element uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: Rng>(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut R) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// Samples every element from N(mean, std^2).
    pub fn randn<R: Rng>(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut R) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let data = (0..n).map(|_| rng::normal_with(rng, mean, std)).collect();
        Tensor { shape, data }
    }

    /// Samples N(0, 1) elements and multiplies the slice at position `i`
    /// along `axis` by `scales[i]`.
    ///
    /// This is the structured initializer used by the model zoo to
    /// synthesize the wide per-channel magnitude diversity the paper
    /// exploits: passing log-normal `scales` along the input-channel axis
    /// yields weight tensors where some feature channels have several
    /// unused bits under 8-bit quantization (paper Fig. 1 / Fig. 12).
    pub fn randn_axis_scaled<R: Rng>(
        shape: impl Into<Shape>,
        axis: usize,
        scales: &[f32],
        rng: &mut R,
    ) -> Result<Self> {
        let shape = shape.into();
        if axis >= shape.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: shape.rank(),
            });
        }
        if scales.len() != shape.dim(axis) {
            return Err(TensorError::LengthMismatch {
                expected: shape.dim(axis),
                actual: scales.len(),
            });
        }
        let strides = shape.strides();
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        for flat in 0..n {
            let coord = (flat / strides[axis]) % shape.dim(axis);
            data.push(rng::normal(rng) * scales[coord]);
        }
        Ok(Tensor { shape, data })
    }

    /// Returns the tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Returns the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying buffer mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise multiplication (Hadamard product).
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Matrix multiplication of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape.rank() != 2 || other.shape.rank() != 2 {
            return Err(TensorError::Invalid(format!(
                "matmul requires rank-2 operands, got {} and {}",
                self.shape, other.shape
            )));
        }
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let mut out = Tensor::zeros([m, n]);
        gemm::gemm_f32(m, n, k, &self.data, &other.data, &mut out.data);
        Ok(out)
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.numel() != self.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Transposes a rank-2 tensor, materializing the result.
    pub fn transpose2d(&self) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::Invalid(format!(
                "transpose2d requires a rank-2 tensor, got {}",
                self.shape
            )));
        }
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros([n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(out)
    }

    /// Permutes the tensor's axes, materializing the result.
    ///
    /// `axes` must be a permutation of `0..rank`.
    pub fn permute(&self, axes: &[usize]) -> Result<Tensor> {
        let rank = self.shape.rank();
        if axes.len() != rank {
            return Err(TensorError::Invalid(format!(
                "permute axes {axes:?} do not match rank {rank}"
            )));
        }
        let mut seen = vec![false; rank];
        for &a in axes {
            if a >= rank || seen[a] {
                return Err(TensorError::Invalid(format!(
                    "permute axes {axes:?} are not a permutation of 0..{rank}"
                )));
            }
            seen[a] = true;
        }
        let new_dims: Vec<usize> = axes.iter().map(|&a| self.shape.dim(a)).collect();
        let new_shape = Shape::new(new_dims);
        let old_strides = self.shape.strides();
        let new_strides = new_shape.strides();
        let mut out = Tensor::zeros(new_shape.dims().to_vec());
        let n = self.numel();
        for new_flat in 0..n {
            // Decompose the destination index, then gather from the source.
            let mut rem = new_flat;
            let mut old_flat = 0usize;
            for (axis, &stride) in new_strides.iter().enumerate() {
                let coord = rem / stride;
                rem %= stride;
                old_flat += coord * old_strides[axes[axis]];
            }
            out.data[new_flat] = self.data[old_flat];
        }
        Ok(out)
    }

    /// Extracts the `i`-th slice along axis 0 (one sample of a batch).
    pub fn index_axis0(&self, i: usize) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(TensorError::Invalid("cannot index a scalar".into()));
        }
        let d0 = self.shape.dim(0);
        if i >= d0 {
            return Err(TensorError::Invalid(format!(
                "index {i} out of bounds for axis 0 with size {d0}"
            )));
        }
        let inner: usize = self.dims()[1..].iter().product();
        let data = self.data[i * inner..(i + 1) * inner].to_vec();
        Ok(Tensor {
            shape: Shape::new(self.dims()[1..].to_vec()),
            data,
        })
    }

    /// Adds `other` to every slice along axis 0 (batch broadcast).
    ///
    /// `self` is `[N, d…]`, `other` is `[d…]`; returns `[N, d…]`. This is
    /// the batched form of [`Tensor::add`] for per-sample parameters
    /// (e.g. positional embeddings applied to a stacked batch).
    pub fn add_bcast0(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape.rank() == 0 || &self.dims()[1..] != other.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "add_bcast0",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let inner = other.numel();
        let mut data = self.data.clone();
        for chunk in data.chunks_mut(inner.max(1)) {
            for (a, &b) in chunk.iter_mut().zip(other.data.iter()) {
                *a += b;
            }
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Stacks same-shaped tensors along a new leading axis.
    pub fn stack(tensors: &[Tensor]) -> Result<Tensor> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::Invalid("stack of zero tensors".into()))?;
        let mut data = Vec::with_capacity(first.numel() * tensors.len());
        for t in tensors {
            if !t.shape.same_as(&first.shape) {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.dims().to_vec(),
                    rhs: t.dims().to_vec(),
                });
            }
            data.extend_from_slice(&t.data);
        }
        let mut dims = vec![tensors.len()];
        dims.extend_from_slice(first.dims());
        Ok(Tensor {
            shape: Shape::new(dims),
            data,
        })
    }

    /// The leading `len` slices along axis 0, as an owned tensor.
    ///
    /// `[T, …]` → `[len, …]` with `len <= T` (a prompt prefix of a
    /// token sequence, say).
    pub fn slice_axis0(&self, len: usize) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(TensorError::Invalid("cannot slice a scalar".into()));
        }
        let d0 = self.shape.dim(0);
        if len > d0 {
            return Err(TensorError::Invalid(format!(
                "slice_axis0 length {len} exceeds axis size {d0}"
            )));
        }
        let inner: usize = self.dims()[1..].iter().product::<usize>().max(1);
        let mut dims = self.dims().to_vec();
        dims[0] = len;
        Ok(Tensor {
            shape: Shape::new(dims),
            data: self.data[..len * inner].to_vec(),
        })
    }

    /// Index of the maximum element in the flattened buffer.
    ///
    /// Ties resolve to the lowest index. Returns `None` for empty tensors.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn constructors_produce_expected_buffers() {
        assert_eq!(Tensor::zeros([2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones([3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full([2], 2.5).data(), &[2.5, 2.5]);
        assert_eq!(Tensor::eye(2).data(), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(Tensor::scalar(3.0).numel(), 1);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec([2, 2], vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec([2, 2], vec![0.0; 4]).is_ok());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = seeded(3);
        let a = Tensor::rand_uniform([4, 7], -1.0, 1.0, &mut rng);
        let tt = a.transpose2d().unwrap().transpose2d().unwrap();
        assert_eq!(a, tt);
    }

    #[test]
    fn permute_matches_transpose_for_rank2() {
        let mut rng = seeded(4);
        let a = Tensor::rand_uniform([3, 5], -1.0, 1.0, &mut rng);
        assert_eq!(a.permute(&[1, 0]).unwrap(), a.transpose2d().unwrap());
    }

    #[test]
    fn permute_rank3() {
        let a = Tensor::from_vec([2, 1, 3], vec![0., 1., 2., 3., 4., 5.]).unwrap();
        let p = a.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[3, 2, 1]);
        assert_eq!(p.at(&[0, 0, 0]).unwrap(), 0.0);
        assert_eq!(p.at(&[0, 1, 0]).unwrap(), 3.0);
        assert_eq!(p.at(&[2, 1, 0]).unwrap(), 5.0);
    }

    #[test]
    fn permute_rejects_invalid_axes() {
        let a = Tensor::zeros([2, 2]);
        assert!(a.permute(&[0, 0]).is_err());
        assert!(a.permute(&[0]).is_err());
        assert!(a.permute(&[0, 2]).is_err());
    }

    #[test]
    fn stack_and_index_axis0_round_trip() {
        let a = Tensor::full([2, 2], 1.0);
        let b = Tensor::full([2, 2], 2.0);
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.dims(), &[2, 2, 2]);
        assert_eq!(s.index_axis0(0).unwrap(), a);
        assert_eq!(s.index_axis0(1).unwrap(), b);
        assert!(s.index_axis0(2).is_err());
    }

    #[test]
    fn add_bcast0_broadcasts_over_batch() {
        let x = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let p = Tensor::from_vec([3], vec![10., 20., 30.]).unwrap();
        let y = x.add_bcast0(&p).unwrap();
        assert_eq!(y.data(), &[11., 22., 33., 14., 25., 36.]);
        assert!(x.add_bcast0(&Tensor::zeros([2])).is_err());
        assert!(Tensor::scalar(1.0).add_bcast0(&p).is_err());
    }

    #[test]
    fn argmax_prefers_first_of_ties() {
        let t = Tensor::from_vec([4], vec![1.0, 3.0, 3.0, 2.0]).unwrap();
        assert_eq!(t.argmax(), Some(1));
        assert_eq!(Tensor::zeros([0]).argmax(), None);
    }

    #[test]
    fn randn_axis_scaled_scales_each_slice() {
        let mut rng = seeded(5);
        let scales = [0.001, 100.0];
        let t = Tensor::randn_axis_scaled([2, 64], 0, &scales, &mut rng).unwrap();
        let row0_max = t.data()[..64].iter().fold(0f32, |m, &x| m.max(x.abs()));
        let row1_max = t.data()[64..].iter().fold(0f32, |m, &x| m.max(x.abs()));
        assert!(row0_max < 0.01);
        assert!(row1_max > 1.0);
    }

    #[test]
    fn randn_axis_scaled_validates_args() {
        let mut rng = seeded(6);
        assert!(Tensor::randn_axis_scaled([2, 2], 3, &[1.0, 1.0], &mut rng).is_err());
        assert!(Tensor::randn_axis_scaled([2, 2], 0, &[1.0], &mut rng).is_err());
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec([2], vec![3.0, 4.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 2.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        let mut c = a.clone();
        c.axpy(0.5, &b).unwrap();
        assert_eq!(c.data(), &[2.5, 4.0]);
    }

    #[test]
    fn mean_and_sum() {
        let t = Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
    }

    #[test]
    fn slice_axis0_takes_prefix() {
        let t = Tensor::from_vec([3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let s = t.slice_axis0(2).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(t.slice_axis0(4).is_err());
        assert!(Tensor::scalar(1.0).slice_axis0(1).is_err());
        // A padded row's valid prefix comes back.
        let padded = Tensor::from_vec([1, 5], vec![7.0, 8.0, 0.0, 0.0, 0.0]).unwrap();
        let back = padded.index_axis0(0).unwrap().slice_axis0(2).unwrap();
        assert_eq!(back.data(), &[7.0, 8.0]);
    }
}
