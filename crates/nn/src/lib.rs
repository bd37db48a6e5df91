//! # syno-nn — the neural-network training substrate
//!
//! Substitutes for the paper's PyTorch training infrastructure (§8, §9.1):
//!
//! * [`layer`] — layers, including [`layer::OperatorLayer`] which runs a
//!   synthesized pGraph as a trainable layer through the tape-recorded
//!   eager backend;
//! * [`data`] — synthetic stand-ins for CIFAR-100/ImageNet (teacher-student
//!   vision tasks) and lm1b (Markov text) — see DESIGN.md §3;
//! * [`train`] — SGD with momentum, training loops, accuracy evaluation;
//! * [`family`] — the task-family proxy registry ([`ProxyFamily`],
//!   auto-detection via [`resolve_family`]) that routes candidate scoring
//!   to a per-workload proxy, prepared once per search ([`ProxyScorer`]);
//! * [`proxy`] — the 4-D vision accuracy proxy (the registry's
//!   [`ProxyFamilyId::Vision`] member);
//! * [`seq`] — the sequence/LM proxy for rank-1/2/3 specs (the registry's
//!   [`ProxyFamilyId::Sequence`] member);
//! * [`lm`] — the miniature GPT with a replaceable QKV projection (Fig. 10).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod data;
pub mod family;
pub mod layer;
pub mod lm;
pub mod proxy;
pub mod seq;
pub mod train;

pub use data::{TextTask, VisionTask};
pub use family::{resolve_family, ProxyFamily, ProxyFamilyId, ProxyScorer, VisionFamily};
pub use layer::{GlobalAvgPool, Layer, LinearLayer, Model, OperatorLayer, ReluLayer};
pub use lm::{LmConfig, QkvProjection, TinyGpt};
pub use proxy::ProxyConfig;
pub use seq::SequenceFamily;
pub use syno_tensor::ExecPolicy;
pub use train::{train_step_on, Sgd, TrainConfig};
