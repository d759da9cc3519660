//! # metadse-nn
//!
//! A small, self-contained tensor and neural-network library built for the
//! [MetaDSE](https://doi.org/10.1145/nnnnnnn) reproduction. It provides the
//! deep-learning substrate the paper obtains from PyTorch:
//!
//! * an n-dimensional [`Tensor`] of `f64` values with NumPy-style
//!   broadcasting,
//! * reverse-mode automatic differentiation in which **every backward pass is
//!   itself expressed with differentiable tensor operations**, so gradients
//!   of gradients ("double backward") work out of the box — this is what
//!   makes full second-order MAML possible,
//! * the layers needed by the transformer-based surrogate predictor
//!   ([`layers::Linear`], [`layers::LayerNorm`],
//!   [`layers::MultiHeadAttention`] with additive masking and attention
//!   capture, [`layers::TransformerEncoder`]),
//! * optimizers ([`optim::Sgd`], [`optim::Adam`]) and a cosine-annealing
//!   learning-rate schedule ([`optim::CosineAnnealing`]),
//! * losses, initializers, parameter and optimizer-state (de)serialization
//!   over a versioned, checksummed container with atomic writes
//!   ([`format`](mod@format)), and a numerical gradient checker used extensively by
//!   the test-suite.
//!
//! # Example
//!
//! Fit a tiny linear model by gradient descent:
//!
//! ```
//! use metadse_nn::{Tensor, autograd};
//!
//! // y = 2x, learn w starting from 0.
//! let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]);
//! let y = Tensor::from_vec(vec![2.0, 4.0, 6.0], &[3, 1]);
//! let w = Tensor::param_from_vec(vec![0.0], &[1, 1]);
//! for _ in 0..200 {
//!     let pred = x.matmul(&w);
//!     let loss = pred.sub(&y).powf(2.0).mean_all();
//!     let g = autograd::grad(&loss, std::slice::from_ref(&w), false);
//!     w.sub_assign_scaled(&g[0], 0.05);
//! }
//! assert!((w.to_vec()[0] - 2.0).abs() < 1e-6);
//! ```

pub mod autograd;
pub mod fasthash;
pub mod format;
pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod serialize;
pub mod tensor;

pub use tensor::backend::{self, BackendKind, BackendModeGuard};
pub use tensor::fused::Activation;
pub use tensor::prims;
pub use tensor::Tensor;

/// Scalar element type used throughout the crate.
///
/// `f64` is chosen over `f32` because the models in MetaDSE are tiny (a few
/// thousand parameters) while meta-gradients compose many chained operations;
/// double precision keeps the numerical gradient checks tight.
pub type Elem = f64;
