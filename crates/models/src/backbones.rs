//! Backbone model layer tables (§9.1 workloads).
//!
//! Each model is a list of linear-operator sites (convolutions or matmuls)
//! with their concrete shapes — the substitution targets of the paper. The
//! tables follow the published architectures; EfficientNetV2-S and
//! ResNeXt-29 are transcribed approximately (see DESIGN.md §7). Non-linear
//! glue (ReLU/BN/pooling) is fused by every compiler and contributes no
//! modeled latency, matching the paper's §4 observation.

/// One convolution site in a backbone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConvLayer {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Input spatial size (square).
    pub size: usize,
    /// Kernel size (1 = pointwise).
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Groups (1 = dense).
    pub groups: usize,
    /// How many identical instances of this layer the model contains.
    pub count: usize,
}

impl ConvLayer {
    fn new(cin: usize, cout: usize, size: usize, k: usize) -> Self {
        ConvLayer {
            cin,
            cout,
            size,
            k,
            stride: 1,
            groups: 1,
            count: 1,
        }
    }

    fn strided(mut self, s: usize) -> Self {
        self.stride = s;
        self
    }

    fn grouped(mut self, g: usize) -> Self {
        self.groups = g;
        self
    }

    fn times(mut self, n: usize) -> Self {
        self.count = n;
        self
    }

    /// Output spatial size.
    pub fn out_size(&self) -> usize {
        self.size / self.stride
    }
}

/// One matmul site (GPT-2 projections).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatmulLayer {
    /// Rows (tokens).
    pub m: usize,
    /// Contraction size.
    pub k: usize,
    /// Columns.
    pub n: usize,
    /// Instances.
    pub count: usize,
}

/// A backbone: its name and substitution sites.
#[derive(Clone, Debug)]
pub struct Backbone {
    /// Display name matching the paper's figures.
    pub name: &'static str,
    /// Convolution sites.
    pub convs: Vec<ConvLayer>,
    /// Matmul sites (empty for vision models).
    pub matmuls: Vec<MatmulLayer>,
}

/// ResNet-18 at 224×224 (He et al. 2016).
pub fn resnet18() -> Backbone {
    let mut convs = vec![ConvLayer::new(3, 64, 224, 7).strided(2)];
    convs.push(ConvLayer::new(64, 64, 56, 3).times(4));
    convs.push(ConvLayer::new(64, 128, 56, 3).strided(2));
    convs.push(ConvLayer::new(64, 128, 56, 1).strided(2)); // downsample
    convs.push(ConvLayer::new(128, 128, 28, 3).times(3));
    convs.push(ConvLayer::new(128, 256, 28, 3).strided(2));
    convs.push(ConvLayer::new(128, 256, 28, 1).strided(2));
    convs.push(ConvLayer::new(256, 256, 14, 3).times(3));
    convs.push(ConvLayer::new(256, 512, 14, 3).strided(2));
    convs.push(ConvLayer::new(256, 512, 14, 1).strided(2));
    convs.push(ConvLayer::new(512, 512, 7, 3).times(3));
    Backbone {
        name: "ResNet-18",
        convs,
        matmuls: vec![],
    }
}

/// ResNet-34 at 224×224.
pub fn resnet34() -> Backbone {
    let mut convs = vec![ConvLayer::new(3, 64, 224, 7).strided(2)];
    convs.push(ConvLayer::new(64, 64, 56, 3).times(6));
    convs.push(ConvLayer::new(64, 128, 56, 3).strided(2));
    convs.push(ConvLayer::new(64, 128, 56, 1).strided(2));
    convs.push(ConvLayer::new(128, 128, 28, 3).times(7));
    convs.push(ConvLayer::new(128, 256, 28, 3).strided(2));
    convs.push(ConvLayer::new(128, 256, 28, 1).strided(2));
    convs.push(ConvLayer::new(256, 256, 14, 3).times(11));
    convs.push(ConvLayer::new(256, 512, 14, 3).strided(2));
    convs.push(ConvLayer::new(256, 512, 14, 1).strided(2));
    convs.push(ConvLayer::new(512, 512, 7, 3).times(5));
    Backbone {
        name: "ResNet-34",
        convs,
        matmuls: vec![],
    }
}

/// The individual 3×3 convolutions of ResNet-34 in network order (conv1
/// excluded), used by the Fig. 9 layer-wise comparison.
pub fn resnet34_layers() -> Vec<ConvLayer> {
    let mut out = Vec::new();
    for l in resnet34().convs {
        if l.k != 3 || l.cin == 3 {
            continue;
        }
        for _ in 0..l.count {
            out.push(ConvLayer { count: 1, ..l });
        }
    }
    out
}

/// The ten layer indices Fig. 9 plots (1-based positions into
/// [`resnet34_layers`]).
pub const FIG9_LAYERS: [usize; 10] = [1, 7, 8, 9, 16, 17, 18, 29, 30, 31];

/// DenseNet-121 at 224×224 (growth 32, blocks 6/12/24/16).
pub fn densenet121() -> Backbone {
    let mut convs = vec![ConvLayer::new(3, 64, 224, 7).strided(2)];
    let mut chan = 64;
    let blocks = [(6usize, 56usize), (12, 28), (24, 14), (16, 7)];
    for (idx, &(layers, size)) in blocks.iter().enumerate() {
        for _ in 0..layers {
            convs.push(ConvLayer::new(chan, 128, size, 1));
            convs.push(ConvLayer::new(128, 32, size, 3));
            chan += 32;
        }
        if idx + 1 < blocks.len() {
            convs.push(ConvLayer::new(chan, chan / 2, size, 1));
            chan /= 2;
        }
    }
    Backbone {
        name: "DenseNet-121",
        convs,
        matmuls: vec![],
    }
}

/// ResNeXt-29 (2×64d), CIFAR topology at ImageNet scale (the paper scales
/// CIFAR-100 images up, §9.1).
pub fn resnext29_2x64d() -> Backbone {
    let mut convs = vec![ConvLayer::new(3, 64, 224, 3)];
    let widths = [(64usize, 256usize, 56usize), (256, 512, 28), (512, 1024, 14)];
    for &(cin, cout, size) in &widths {
        for block in 0..3 {
            let input = if block == 0 { cin } else { cout };
            convs.push(ConvLayer::new(input, 128, size, 1));
            convs.push(ConvLayer::new(128, 128, size, 3).grouped(2));
            convs.push(ConvLayer::new(128, cout, size, 1));
        }
    }
    Backbone {
        name: "ResNeXt-29",
        convs,
        matmuls: vec![],
    }
}

/// EfficientNetV2-S (approximate stage table; Tan & Le 2021).
pub fn efficientnet_v2_s() -> Backbone {
    let mut convs = vec![ConvLayer::new(3, 24, 224, 3).strided(2)];
    // Fused-MBConv stages (expand conv3x3 + project 1x1).
    for _ in 0..2 {
        convs.push(ConvLayer::new(24, 24, 112, 3));
    }
    for i in 0..4 {
        let (cin, s) = if i == 0 { (24, 2) } else { (48, 1) };
        convs.push(ConvLayer::new(cin, cin * 4, 112 / s.min(2), 3).strided(s));
        convs.push(ConvLayer::new(cin * 4, 48, 56, 1));
    }
    for i in 0..4 {
        let (cin, s) = if i == 0 { (48, 2) } else { (64, 1) };
        convs.push(ConvLayer::new(cin, cin * 4, if i == 0 { 56 } else { 28 }, 3).strided(s));
        convs.push(ConvLayer::new(cin * 4, 64, 28, 1));
    }
    // MBConv stages (1x1 expand + depthwise 3x3 + 1x1 project).
    let mb = [
        (64usize, 128usize, 28usize, 6usize, 2usize, 6usize),
        (128, 160, 14, 9, 1, 6),
        (160, 256, 14, 15, 2, 6),
    ];
    for &(cin, cout, size, layers, stride, expand) in &mb {
        for l in 0..layers {
            let (input, s) = if l == 0 { (cin, stride) } else { (cout, 1) };
            let mid = input * expand;
            convs.push(ConvLayer::new(input, mid, size, 1));
            convs.push(ConvLayer::new(mid, mid, size, 3).strided(s).grouped(mid));
            convs.push(ConvLayer::new(mid, cout, size / s, 1));
        }
    }
    convs.push(ConvLayer::new(256, 1280, 7, 1));
    Backbone {
        name: "EfficientNetV2-S",
        convs,
        matmuls: vec![],
    }
}

/// GPT-2 (117M: 12 layers, 12 heads, 768 dims) over a 1024-token sequence;
/// the QKV projections are the paper's substitution targets.
pub fn gpt2() -> Backbone {
    let seq = 1024;
    Backbone {
        name: "GPT-2",
        convs: vec![],
        matmuls: vec![
            MatmulLayer {
                m: seq,
                k: 768,
                n: 2304,
                count: 12,
            }, // QKV
            MatmulLayer {
                m: seq,
                k: 768,
                n: 768,
                count: 12,
            }, // attention out
            MatmulLayer {
                m: seq,
                k: 768,
                n: 3072,
                count: 12,
            }, // MLP up
            MatmulLayer {
                m: seq,
                k: 3072,
                n: 768,
                count: 12,
            }, // MLP down
        ],
    }
}

/// The five vision backbones in the paper's figure order.
pub fn vision_backbones() -> Vec<Backbone> {
    vec![
        resnet18(),
        resnet34(),
        densenet121(),
        resnext29_2x64d(),
        efficientnet_v2_s(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MACs across all sites of `b`, each counted `count` times.
    fn total_macs(b: &Backbone) -> u128 {
        let conv: u128 = b
            .convs
            .iter()
            .map(|l| {
                let per_pixel = l.cout * (l.cin / l.groups) * l.k * l.k;
                (l.out_size() * l.out_size() * per_pixel * l.count) as u128
            })
            .sum();
        let mm: u128 = b.matmuls.iter().map(|l| (l.m * l.k * l.n * l.count) as u128).sum();
        conv + mm
    }

    #[test]
    fn resnet18_macs_are_in_the_published_ballpark() {
        // ResNet-18 @224 is ~1.8 GMACs.
        let macs = total_macs(&resnet18()) as f64;
        assert!(
            (1.0e9..3.0e9).contains(&macs),
            "ResNet-18 MACs {macs:.2e}"
        );
    }

    #[test]
    fn resnet34_has_more_compute_than_resnet18() {
        assert!(total_macs(&resnet34()) > total_macs(&resnet18()));
        // ~3.6 GMACs published.
        let macs = total_macs(&resnet34()) as f64;
        assert!((2.5e9..5.0e9).contains(&macs), "{macs:.2e}");
    }

    #[test]
    fn densenet121_macs_ballpark() {
        // ~2.8 GMACs published.
        let macs = total_macs(&densenet121()) as f64;
        assert!((1.5e9..4.5e9).contains(&macs), "{macs:.2e}");
    }

    #[test]
    fn resnet34_layer_list_covers_fig9_indices() {
        let layers = resnet34_layers();
        assert_eq!(layers.len(), 32); // 6+1+7+1+11+1+5 3x3 convs
        for &idx in &FIG9_LAYERS {
            assert!(idx <= layers.len(), "layer L{idx} exists");
        }
        // L1 is an early wide layer, L31 a late narrow one.
        assert_eq!(layers[FIG9_LAYERS[0] - 1].size, 56);
        assert_eq!(layers[FIG9_LAYERS[9] - 1].size, 7);
    }

    #[test]
    fn gpt2_qkv_dominates_projection_compute() {
        let g = gpt2();
        let qkv = &g.matmuls[0];
        assert_eq!(qkv.n, 3 * 768);
        assert_eq!(total_macs(&g), 12 * 1024 * (768 * 2304 + 768 * 768 + 768 * 3072 * 2) as u128);
    }

    #[test]
    fn every_vision_backbone_is_nonempty() {
        for b in vision_backbones() {
            assert!(!b.convs.is_empty(), "{}", b.name);
        }
    }

    #[test]
    fn grouped_layers_have_divisible_channels() {
        for b in vision_backbones() {
            for l in &b.convs {
                assert_eq!(l.cin % l.groups, 0, "{} {:?}", b.name, l);
            }
        }
    }
}
