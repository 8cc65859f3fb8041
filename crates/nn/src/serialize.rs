//! Model serialization for deployment: capture a trained [`Sequential`]
//! into a self-contained, serde-friendly snapshot and restore it later —
//! the companion of [`naps_core`-style] monitor snapshots, so a monitored
//! network ships as two JSON files.
//!
//! Every built-in layer is supported — dense, convolution, max pooling,
//! batch norm (with its running statistics), ReLU and flatten — so both
//! of the paper's networks round-trip.
//! Stateful training caches are not captured: snapshots restore in
//! inference-ready state.  A custom [`Layer`] implementation cannot be
//! captured ([`SnapshotError::UnsupportedLayer`]), and a snapshot whose
//! parameters disagree with their layer's shape does not restore
//! ([`SnapshotError::ShapeMismatch`]).

use crate::conv::{self, Conv2d};
use crate::dense::{self, Dense};
use crate::layer::{Flatten, Layer};
use crate::norm::{self, BatchNorm2d};
use crate::pool::MaxPool2d;
use crate::relu::Relu;
use crate::sequential::Sequential;
use naps_tensor::{ConvDims, Tensor};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A layer's serialisable description.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
pub enum LayerSnapshot {
    /// Fully-connected layer: weights `[in, out]` and bias `[out]`.
    Dense {
        /// Weight matrix.
        w: Tensor,
        /// Bias vector.
        b: Tensor,
    },
    /// ReLU activation.
    Relu,
    /// Flatten marker with its feature count.
    Flatten {
        /// Features per sample.
        features: usize,
    },
    /// 2-D convolution, no padding.
    Conv2d {
        /// Input geometry, kernel side and stride.
        dims: ConvDims,
        /// Kernel `[out_c, in_c*k*k]`.
        w: Tensor,
        /// Bias `[out_c]`.
        b: Tensor,
    },
    /// Max pooling of `[c, h, w]` maps with window = stride = `k`.
    MaxPool2d {
        /// Channels.
        c: usize,
        /// Map height.
        h: usize,
        /// Map width.
        w: usize,
        /// Window side length.
        k: usize,
    },
    /// Batch norm over `c` channels of `hw`-pixel maps, with the running
    /// statistics inference normalises by.
    BatchNorm2d {
        /// Pixels per channel map.
        hw: usize,
        /// Variance stabiliser.
        eps: f32,
        /// Per-channel scale `[c]`.
        gamma: Tensor,
        /// Per-channel shift `[c]`.
        beta: Tensor,
        /// Per-channel running mean.
        running_mean: Vec<f32>,
        /// Per-channel running variance.
        running_var: Vec<f32>,
    },
}

impl LayerSnapshot {
    /// The input width this layer fixes, `None` for ReLU, which takes
    /// any width.
    pub(crate) fn input_len(&self) -> Option<usize> {
        match self {
            LayerSnapshot::Dense { w, .. } => Some(w.shape()[0]),
            LayerSnapshot::Flatten { features } => Some(*features),
            LayerSnapshot::Conv2d { dims, .. } => Some(dims.in_c * dims.in_h * dims.in_w),
            LayerSnapshot::MaxPool2d { c, h, w, .. } => Some(c * h * w),
            LayerSnapshot::BatchNorm2d {
                hw, running_mean, ..
            } => Some(running_mean.len() * hw),
            LayerSnapshot::Relu => None,
        }
    }
}

/// A serialisable description of a [`Sequential`] built from the
/// crate's layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// Layer descriptions in order.
    pub layers: Vec<LayerSnapshot>,
}

/// Error restoring or capturing a model snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The model contains a layer type the snapshot format cannot express:
    /// a custom [`Layer`] implementation outside this crate.
    UnsupportedLayer {
        /// The layer's label.
        label: String,
        /// Its position.
        index: usize,
    },
    /// A layer's parameters disagree with its shape: a dense bias of the
    /// wrong width, a batch norm with a short running variance.
    ShapeMismatch {
        /// The layer's position.
        index: usize,
        /// What disagrees.
        reason: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnsupportedLayer { label, index } => {
                write!(f, "layer {index} ({label}) cannot be snapshotted")
            }
            SnapshotError::ShapeMismatch { index, reason } => write!(f, "layer {index}: {reason}"),
        }
    }
}

impl Error for SnapshotError {}

impl ModelSnapshot {
    /// Captures a model built from the crate's layers.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::UnsupportedLayer`] for a custom [`Layer`]
    /// implementation.
    pub fn capture(model: &Sequential) -> Result<Self, SnapshotError> {
        let mut layers = Vec::with_capacity(model.len());
        for i in 0..model.len() {
            let layer = model.layer(i);
            let any = layer.as_any();
            let snap = if let Some(d) = any.downcast_ref::<Dense>() {
                LayerSnapshot::Dense {
                    w: d.weights().clone(),
                    b: d.bias().clone(),
                }
            } else if any.downcast_ref::<Relu>().is_some() {
                LayerSnapshot::Relu
            } else if let Some(f) = any.downcast_ref::<Flatten>() {
                LayerSnapshot::Flatten {
                    features: f.output_len(),
                }
            } else if let Some(c) = any.downcast_ref::<Conv2d>() {
                LayerSnapshot::Conv2d {
                    dims: c.dims(),
                    w: c.weights().clone(),
                    b: c.bias().clone(),
                }
            } else if let Some(p) = any.downcast_ref::<MaxPool2d>() {
                let d = p.dims;
                LayerSnapshot::MaxPool2d {
                    c: d.c,
                    h: d.h,
                    w: d.w,
                    k: d.k,
                }
            } else if let Some(n) = any.downcast_ref::<BatchNorm2d>() {
                LayerSnapshot::BatchNorm2d {
                    hw: n.hw,
                    eps: n.eps,
                    gamma: n.gamma.clone(),
                    beta: n.beta.clone(),
                    running_mean: n.running_mean.clone(),
                    running_var: n.running_var.clone(),
                }
            } else {
                return Err(SnapshotError::UnsupportedLayer {
                    label: layer.label(),
                    index: i,
                });
            };
            layers.push(snap);
        }
        Ok(ModelSnapshot { layers })
    }

    /// Checks every layer's parameters against its shape: the one check
    /// [`ModelSnapshot::restore`] and [`ModelSnapshot::prepare`] run on
    /// snapshot input.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::ShapeMismatch`] for the first layer whose
    /// parameters disagree with its shape.
    pub(crate) fn check(&self) -> Result<(), SnapshotError> {
        for (index, layer) in self.layers.iter().enumerate() {
            match layer {
                LayerSnapshot::Dense { w, b } => dense::check_parts(w, b),
                LayerSnapshot::Conv2d { dims, w, b } => conv::check_parts(*dims, w, b),
                LayerSnapshot::MaxPool2d { h, w, k, .. } if *k == 0 || k > h || k > w => {
                    Err(format!("invalid pooling window {k}"))
                }
                LayerSnapshot::BatchNorm2d {
                    gamma,
                    beta,
                    running_mean,
                    running_var,
                    ..
                } => norm::check_stats(gamma, beta, running_mean, running_var),
                _ => Ok(()),
            }
            .map_err(|reason| SnapshotError::ShapeMismatch { index, reason })?;
        }
        Ok(())
    }

    /// Rebuilds the model.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::ShapeMismatch`] if a layer's parameters
    /// disagree with its shape.
    pub fn restore(&self) -> Result<Sequential, SnapshotError> {
        self.check()?;
        let layers: Vec<Box<dyn Layer>> = self
            .layers
            .iter()
            .map(|l| -> Box<dyn Layer> {
                match l {
                    LayerSnapshot::Dense { w, b } => {
                        Box::new(Dense::from_parts(w.clone(), b.clone()))
                    }
                    LayerSnapshot::Relu => Box::new(Relu::new()),
                    LayerSnapshot::Flatten { features } => Box::new(Flatten::new(*features)),
                    LayerSnapshot::Conv2d { dims, w, b } => {
                        Box::new(Conv2d::from_parts(*dims, w.clone(), b.clone()))
                    }
                    LayerSnapshot::MaxPool2d { c, h, w, k } => {
                        Box::new(MaxPool2d::new(*c, *h, *w, *k))
                    }
                    LayerSnapshot::BatchNorm2d {
                        hw,
                        eps,
                        gamma,
                        beta,
                        running_mean,
                        running_var,
                    } => Box::new(BatchNorm2d::from_stats(
                        *hw,
                        *eps,
                        gamma.clone(),
                        beta.clone(),
                        running_mean.clone(),
                        running_var.clone(),
                    )),
                }
            })
            .collect();
        Ok(Sequential::new(layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_snapshot_roundtrips_inference() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = crate::models::mlp(&[4, 8, 3], &mut rng);
        let snap = ModelSnapshot::capture(&net).expect("capture");
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: ModelSnapshot = serde_json::from_str(&json).expect("deserialize");
        let mut restored = back.restore().expect("restores");
        let x = Tensor::from_vec(vec![2, 4], (0..8).map(|i| i as f32 * 0.3 - 1.0).collect());
        assert_eq!(net.forward(&x, false), restored.forward(&x, false));
    }

    /// Every layer kind the format expresses is captured as its own
    /// variant and restored to the same layer: conv → batch norm → ReLU →
    /// max pool → flatten → dense, with batch norm's running statistics
    /// moved off their defaults.
    #[test]
    fn snapshot_preserves_layer_variants() {
        let mut rng = StdRng::seed_from_u64(4);
        let dims = ConvDims {
            in_c: 1,
            in_h: 5,
            in_w: 5,
            k: 2,
            s: 1,
        };
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(dims, 2, &mut rng)),
            Box::new(BatchNorm2d::new(2, 4, 4)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2, 4, 4, 2)),
            Box::new(Flatten::new(8)),
            Box::new(Dense::new(8, 3, &mut rng)),
        ];
        let mut net = Sequential::new(layers);
        let x = Tensor::randn(vec![2, 25], 1.0, &mut rng);
        let _ = net.forward(&x, true);
        let snap = ModelSnapshot::capture(&net).expect("capture");
        assert!(matches!(
            snap.layers.as_slice(),
            [
                LayerSnapshot::Conv2d { .. },
                LayerSnapshot::BatchNorm2d { .. },
                LayerSnapshot::Relu,
                LayerSnapshot::MaxPool2d { k: 2, .. },
                LayerSnapshot::Flatten { features: 8 },
                LayerSnapshot::Dense { .. },
            ]
        ));
        let mut restored = snap.restore().expect("restores");
        assert_eq!(restored.summary(), net.summary());
        assert_eq!(restored.forward(&x, false), net.forward(&x, false));
    }

    /// Both of the paper's networks survive capture → JSON → restore with
    /// bit-identical inference outputs (batch-norm running statistics
    /// included).
    #[test]
    fn paper_networks_roundtrip_through_json_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gtsrb = crate::models::gtsrb_net(&mut rng);
        // Move the BN running statistics off their defaults.
        let _ = gtsrb.forward(&Tensor::randn(vec![2, 3 * 32 * 32], 1.0, &mut rng), true);
        for (mut net, width) in [(crate::models::mnist_net(&mut rng), 28 * 28), (gtsrb, 3072)] {
            let snap = ModelSnapshot::capture(&net).expect("capture");
            let json = serde_json::to_string(&snap).expect("serialize");
            let back: ModelSnapshot = serde_json::from_str(&json).expect("deserialize");
            let mut restored = back.restore().expect("restores");
            assert_eq!(restored.summary(), net.summary());
            let x = Tensor::randn(vec![2, width], 1.0, &mut rng);
            let (want, got) = (net.forward(&x, false), restored.forward(&x, false));
            assert_eq!(want.shape(), got.shape());
            assert!(
                want.data()
                    .iter()
                    .zip(got.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "restored {} diverged",
                net.summary()
            );
        }
    }

    /// A layer from outside the crate cannot be captured.
    #[derive(Debug)]
    struct Custom;

    impl Layer for Custom {
        fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
            x.clone()
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }

        fn output_len(&self) -> usize {
            4
        }

        fn label(&self) -> String {
            "custom".to_owned()
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn custom_layers_are_rejected_with_context() {
        let net = Sequential::new(vec![Box::new(Relu::new()), Box::new(Custom)]);
        let err = ModelSnapshot::capture(&net).expect_err("custom layer unsupported");
        let SnapshotError::UnsupportedLayer { label, index } = err else {
            panic!("unexpected error: {err}");
        };
        assert_eq!((label.as_str(), index), ("custom", 1));
    }

    /// A batch-norm snapshot whose running variance is one channel short.
    const SHORT_BN_JSON: &str = r#"{"layers":[{"BatchNorm2d":{"hw":4,"eps":1e-5,"gamma":{"shape":[2],"data":[1.0,1.0]},"beta":{"shape":[2],"data":[0.0,0.0]},"running_mean":[0.0,0.0],"running_var":[1.0]}}]}"#;

    /// Malformed snapshot input fails when it is restored, with a typed
    /// error naming the layer, not at the first forward pass.
    #[test]
    fn mismatched_batch_norm_stats_fail_at_restore() {
        let snap: ModelSnapshot = serde_json::from_str(SHORT_BN_JSON).expect("well-formed JSON");
        let err = snap.restore().expect_err("short running variance");
        assert_eq!(
            err,
            SnapshotError::ShapeMismatch {
                index: 0,
                reason: "batch-norm running variance must have c = 2 entries".to_owned(),
            }
        );
        assert_eq!(
            err.to_string(),
            "layer 0: batch-norm running variance must have c = 2 entries"
        );
    }

    /// A dense bias one entry too wide fails to restore the same way.
    #[test]
    fn mismatched_dense_bias_fails_at_restore() {
        let json = r#"{"layers":["Relu",{"Dense":{"w":{"shape":[2,1],"data":[1.0,-2.0]},"b":{"shape":[2],"data":[0.5,0.5]}}}]}"#;
        let snap: ModelSnapshot = serde_json::from_str(json).expect("well-formed JSON");
        assert_eq!(
            snap.restore().expect_err("wide bias").to_string(),
            "layer 1: bias must be [out] = [1]"
        );
    }

    #[test]
    #[should_panic(expected = "running variance must have c = 2 entries")]
    fn mismatched_batch_norm_stats_fail_at_prepare() {
        let snap: ModelSnapshot = serde_json::from_str(SHORT_BN_JSON).expect("well-formed JSON");
        let _ = snap.prepare(&crate::ObservationPlan::new(vec![0]));
    }

    /// A snapshot naming a layer kind the format does not express (here
    /// a leaky ReLU, which this crate no longer has) fails to load with
    /// the deserializer's typed error naming the variant; nothing panics.
    #[test]
    fn unknown_layer_kind_fails_to_load_with_a_typed_error() {
        let json = r#"{"layers":[{"Dense":{"w":{"shape":[1,1],"data":[1.0]},"b":{"shape":[1],"data":[0.0]}}},{"LeakyRelu":{"slope":0.1}}]}"#;
        let err = serde_json::from_str::<ModelSnapshot>(json).expect_err("unknown layer kind");
        assert!(
            err.to_string().contains("unknown variant `LeakyRelu`"),
            "unexpected error: {err}"
        );
    }

    /// Snapshots written before the spatial variants existed still load.
    #[test]
    fn dense_only_snapshot_json_still_loads() {
        let json = r#"{"layers":[{"Dense":{"w":{"shape":[2,1],"data":[1.0,-2.0]},"b":{"shape":[1],"data":[0.5]}}},"Relu",{"Flatten":{"features":1}}]}"#;
        let snap: ModelSnapshot = serde_json::from_str(json).expect("legacy JSON loads");
        let mut net = snap.restore().expect("legacy snapshot restores");
        let y = net.forward(&Tensor::from_vec(vec![1, 2], vec![3.0, 1.0]), false);
        assert_eq!(y.data(), &[1.5]);
    }
}
