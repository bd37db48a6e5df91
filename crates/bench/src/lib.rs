//! # syno-bench — regenerating the tables and figures of the evaluation
//!
//! Each `figN_data` / `table3_data` function computes the data behind one
//! figure or table of §9, and the `src/bin/*` binaries print them as
//! tables. Absolute latencies come from the `syno-compiler` machine
//! models, accuracies from the `syno-nn` proxies. The one binary that is
//! not a figure, `multi_writer_smoke`, is the CI gate for the sharded
//! store's two-process contract. Performance is measured by the
//! repository's benchmark (`benchmark/`), not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod table3;

pub use fig10::{fig10_data, Fig10Data};
pub use fig5::{fig5_data, Fig5Row};
pub use fig6::{fig6_data, Fig6Point};
pub use fig8::{fig8_data, Fig8Row};
pub use fig9::{fig9_data, Fig9Row};
pub use table3::{ablation_shape_distance, table3_data, SdAblation, Table3Row};

/// Proxy accuracy of one of the figures' fixed reference operators under
/// the vision family. These graphs are known to fit the 4-D task, so a
/// typed scoring error is a bug in the fixture, not a data point.
pub(crate) fn vision_accuracy(graph: &syno_core::graph::PGraph, config: &syno_nn::ProxyConfig) -> f64 {
    let accuracy = syno_nn::ProxyFamilyId::Vision
        .family()
        .score(graph, 0, config)
        .expect("reference operator is scorable by the vision proxy");
    f64::from(accuracy)
}
