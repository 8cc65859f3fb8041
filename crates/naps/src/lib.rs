//! # naps — runtime monitoring of neuron activation patterns
//!
//! Umbrella crate re-exporting the full `naps` workspace, a Rust
//! reproduction of *Runtime Monitoring Neuron Activation Patterns*
//! (Cheng, Nührenberg, Yasuoka; DATE 2019, arXiv:1809.06573).
//!
//! After training a ReLU classifier, a [`monitor::Monitor`] records the
//! binary on/off activation patterns of a close-to-output layer for all
//! correctly classified training inputs, enlarges each class's pattern set
//! by a Hamming-distance budget `γ` (the *γ-comfort zone*), and stores the
//! result in a binary decision diagram.  At inference time the monitor
//! checks — in time linear in the number of monitored neurons — whether the
//! current input's pattern lies inside the comfort zone of the predicted
//! class, raising an *out-of-pattern* warning otherwise.
//!
//! ## Crates
//!
//! | Module alias | Crate | Contents |
//! |---|---|---|
//! | [`bdd`] | `naps-bdd` | ROBDD manager with Hamming-ball dilation |
//! | [`tensor`] | `naps-tensor` | dense f32 tensors, matmul, im2col, pooling |
//! | [`nn`] | `naps-nn` | trainable layers, optimizers, activation taps, saliency |
//! | [`data`] | `naps-data` | procedural MNIST-like / GTSRB-like datasets, shifts |
//! | [`monitor`] | `naps-core` | the paper's contribution: comfort zones + monitors |
//! | [`frontcar`] | `naps-frontcar` | highway front-car selection case study |
//! | [`serve`] | `naps-serve` | parallel monitoring engine: frozen zones + a worker pool over one FIFO |
//!
//! The monitor family — [`monitor::Monitor`], [`monitor::LayeredMonitor`],
//! [`monitor::RefinedMonitor`], [`monitor::GridMonitor`] — is driven
//! through the shared [`monitor::ActivationMonitor`] trait (`check`,
//! `check_batch`, `enlarge_to`); every report type answers
//! [`monitor::MonitorOutcome::out_of_pattern`] uniformly.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the end-to-end Figure 1 workflow:
//! train → build monitor → query in deployment → flag a novelty input.

pub use naps_bdd as bdd;
pub use naps_core as monitor;
pub use naps_data as data;
pub use naps_frontcar as frontcar;
pub use naps_nn as nn;
pub use naps_serve as serve;
pub use naps_tensor as tensor;
