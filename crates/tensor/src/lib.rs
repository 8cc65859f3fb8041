//! Minimal dense `f32` tensor library backing the `naps` neural-network
//! substrate.
//!
//! The paper trains and runs convolutional ReLU classifiers (PyTorch in the
//! original); this crate provides exactly the numeric kernels those models
//! need on a CPU: n-dimensional row-major arrays, 2-D matrix products
//! (including transposed variants used by backpropagation), `im2col`/
//! `col2im` lowering for convolutions, and max-pooling with argmax capture.
//!
//! # The GEMM
//!
//! Every matrix product here — [`Tensor::matmul`], [`Tensor::matmul_into`],
//! [`Tensor::matmul_at`], [`Tensor::matmul_bt`] and [`matmul_slice_into`]
//! — runs one kernel, so the conv and dense layers
//! of `naps-nn`, forward and backward, share it.  It is register-tiled:
//! a 4-row × `NR`-column tile of the output stays in registers for the
//! whole sweep over the shared dimension, reading the right operand
//! straight from its row-major layout, and is stored once.  The tile
//! width is chosen at run time from the CPU: 64 columns with AVX-512F,
//! 24 with AVX2 (x86_64, via `is_x86_feature_detected!`), and a scalar
//! 4-row kernel everywhere else.  No build flag or cargo feature is
//! involved.
//!
//! Every arm sums each output element's products in ascending order of
//! the shared dimension, starting from `+0.0`, and Rust never fuses a
//! multiply and an add, so all arms are bit-identical on finite data: a
//! network trains to the same weights whichever arm runs.  Each arm skips a
//! shared-dimension step whose four left-operand values are all zero;
//! that is exact on finite data, but it drops the NaN that `0 · ∞` would
//! give, so with non-finite right operands the result can differ from a
//! plain triple loop.
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
    col2im_into, im2col, im2col_into, im2col_t_into, max_pool2d, max_pool2d_backward, ConvDims,
};
pub use linalg::matmul_slice_into;
pub use rng::{xavier_uniform, Randn};
pub use tensor::Tensor;
