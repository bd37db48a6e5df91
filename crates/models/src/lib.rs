//! # syno-models — backbones, baselines, and the published operators
//!
//! The workloads of §9.1 and the comparators of §9.2:
//!
//! * [`backbones`] — layer tables for ResNet-18/34, DenseNet-121,
//!   ResNeXt-29 (2×64d), EfficientNetV2-S and GPT-2;
//! * [`discovered`] — Operator 1 (Fig. 7 / Listing 2) and Operator 2 as
//!   concrete pGraphs, plus the stacked-convolution control;
//! * [`baselines`] — NAS-PTE's transformation sequences and the αNAS
//!   published constants;
//! * [`latency`] — end-to-end model latency under operator substitution
//!   (the engine behind Figures 5, 6, 8 and 9).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod backbones;
pub mod baselines;
pub mod discovered;
pub mod latency;

pub use backbones::{
    densenet121, efficientnet_v2_s, gpt2, resnet18, resnet34, resnet34_layers, resnext29_2x64d,
    vision_backbones, Backbone, ConvLayer, MatmulLayer, FIG9_LAYERS,
};
pub use baselines::{alphanas_reported, nas_pte_graphs, AlphaNasReported, NasPteSeq};
pub use discovered::{
    conv_graph, grouped_conv_graph, operator1, operator2, stacked_convolution, ConvShape,
};
pub use latency::{model_flops_params, model_latency, shape_of, site_graphs, site_latency, Substitution};
