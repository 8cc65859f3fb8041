//! From-scratch CPU neural-network library for the `naps` reproduction.
//!
//! The paper (Cheng, Nührenberg, Yasuoka; DATE 2019) trains two
//! convolutional ReLU classifiers with PyTorch (Table I) and then monitors
//! the binary on/off pattern of one fully-connected ReLU layer.  This crate
//! provides the equivalent substrate:
//!
//! * trainable layers — [`Dense`], [`Conv2d`], [`MaxPool2d`],
//!   [`BatchNorm2d`], [`Relu`], [`Flatten`] — composed with [`Sequential`];
//! * softmax cross-entropy loss and [`Sgd`] / [`Adam`] optimizers;
//! * **activation taps**: [`Sequential::observe_rows`] observes inputs
//!   in 64-row passes (split across the host's cores when a call is
//!   large enough to pay for it) of the prepared, allocation-free forward
//!   ([`PreparedModel`], the one the serving engine runs), retaining
//!   exactly the layers an [`ObservationPlan`] names (plus the logits) —
//!   every in-process observer's path.
//!   [`Sequential::forward_observe_plan`] is the allocating oracle that
//!   forward is pinned bit-identical to, and [`Sequential::forward_all`]
//!   remains as the whole-depth diagnostics tap;
//! * **gradient saliency** (`∂n_c/∂n_i`, Section II of the paper) for
//!   selecting the most decision-relevant neurons to monitor, including the
//!   special case where the monitored layer feeds a linear output layer.
//!
//! # Example
//!
//! ```
//! use naps_nn::{Dense, Relu, Sequential, softmax_cross_entropy};
//! use naps_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(8, 3, &mut rng)),
//! ]);
//! let x = Tensor::zeros(vec![2, 4]);
//! let logits = net.forward(&x, false);
//! assert_eq!(logits.shape(), &[2, 3]);
//! let (loss, _grad) = softmax_cross_entropy(&logits, &[0, 2]);
//! assert!(loss > 0.0);
//! ```

mod conv;
mod dense;
mod kernels;
mod layer;
mod loss;
mod models;
mod norm;
mod observe;
mod optim;
mod pool;
mod prepared;
mod relu;
mod saliency;
mod sequential;
mod serialize;
mod stats;
mod train;

pub use conv::Conv2d;
pub use dense::Dense;
pub use layer::{Flatten, Layer, ParamGrad};
pub use loss::{accuracy, softmax, softmax_cross_entropy};
pub use models::{
    gtsrb_net, mlp, mnist_net, GTSRB_MONITOR_LAYER, GTSRB_MONITOR_WIDTH, MNIST_MONITOR_LAYER,
    MNIST_MONITOR_WIDTH,
};
pub use norm::BatchNorm2d;
pub use observe::{pack_batch, pack_batch_into, ObservationPlan, ObservedRow};
pub use optim::{Adam, Optimizer, Sgd};
pub use pool::MaxPool2d;
pub use prepared::{ForwardScratch, PreparedModel};
pub use relu::Relu;
pub use saliency::{saliency_by_backward, saliency_from_output_weights, top_k_fraction};
pub use sequential::Sequential;
pub use serialize::{LayerSnapshot, ModelSnapshot, SnapshotError};
pub use stats::activation_moments;
pub use train::{TrainConfig, TrainReport, Trainer};
