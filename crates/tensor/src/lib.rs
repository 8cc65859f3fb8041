//! Minimal dense `f32` tensor library backing the `naps` neural-network
//! substrate.
//!
//! The paper trains and runs convolutional ReLU classifiers (PyTorch in the
//! original); this crate provides exactly the numeric kernels those models
//! need on a CPU: n-dimensional row-major arrays, 2-D matrix products
//! (including transposed variants used by backpropagation), `im2col`/
//! `col2im` lowering for convolutions, and max-pooling with argmax capture.
//!
//! # Example
//!
//! ```
//! use naps_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data()[0], 58.0); // 1*7 + 2*9 + 3*11
//! ```

mod conv;
mod linalg;
mod rng;
mod tensor;

pub use conv::{
    col2im, im2col, im2col_into, im2col_t_into, max_pool2d, max_pool2d_backward, ConvDims,
};
pub use linalg::{matmul_slice_into, PackedWeights};
pub use rng::{xavier_uniform, Randn};
pub use tensor::Tensor;
