//! Device models for the three evaluation platforms (§9.1).
//!
//! The paper measures on an NVIDIA Jetson Orin Nano (6-core Cortex-A78AE
//! mobile CPU + 1024-core Ampere mobile GPU) and an NVIDIA A100. These
//! descriptors capture the attributes the cost model consumes: peak compute,
//! memory bandwidth, cache capacity, parallel width, launch overhead, and
//! the tensor-core / template idiosyncrasies that drive the paper's
//! TVM-vs-TorchInductor findings (TVM cannot use TF32 tensor cores for FP32;
//! TorchInductor's codegen templates target big GPUs only and fall back to
//! ATen kernels elsewhere, §9.2).

/// Processor family, which changes how parallelism and vectorization are
/// modeled.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceKind {
    /// Multicore CPU with SIMD lanes.
    Cpu,
    /// Streaming-multiprocessor GPU.
    Gpu,
}

/// An evaluation platform.
#[derive(Clone, Debug)]
pub struct Device {
    /// Display name.
    pub name: &'static str,
    /// Processor family.
    pub kind: DeviceKind,
    /// Hardware parallel width (cores or SM count × warps).
    pub parallel_width: u32,
    /// SIMD lanes per core (CPU) or threads per SM slot (GPU).
    pub vector_width: u32,
    /// Peak FP32 throughput, FLOP/s, all cores, vectorized.
    pub peak_flops: f64,
    /// DRAM bandwidth, bytes/s.
    pub mem_bandwidth: f64,
    /// Last-level cache (or GPU L2) capacity in bytes.
    pub cache_bytes: u64,
    /// Fixed cost per launched kernel, seconds.
    pub launch_overhead: f64,
    /// Tensor-core speedup for matmul-shaped FP32 work lowered to TF32
    /// (1.0 when unavailable). Only TorchInductor-style templates use it.
    pub tensor_core_speedup: f64,
    /// INT8 throughput multiplier over FP32.
    pub int8_speedup: f64,
    /// Whether TorchInductor considers this a "big GPU" and emits native
    /// codegen templates (see pytorch#109489, cited by the paper).
    pub big_gpu: bool,
}

impl Device {
    /// The Jetson Orin Nano's 6-core Arm Cortex-A78AE CPU.
    pub fn mobile_cpu() -> Device {
        Device {
            name: "mobile-cpu",
            kind: DeviceKind::Cpu,
            parallel_width: 6,
            vector_width: 4, // 128-bit NEON, f32x4
            peak_flops: 6.0 * 2.0e9 * 4.0 * 2.0, // 6 cores * 2 GHz * f32x4 FMA
            mem_bandwidth: 34.0e9,
            cache_bytes: 2 * 1024 * 1024,
            launch_overhead: 2.0e-6,
            tensor_core_speedup: 1.0,
            int8_speedup: 2.0,
            big_gpu: false,
        }
    }

    /// The Jetson Orin Nano's 1024-core Ampere GPU (32 tensor cores).
    pub fn mobile_gpu() -> Device {
        Device {
            name: "mobile-gpu",
            kind: DeviceKind::Gpu,
            parallel_width: 8 * 48, // 8 SMs * resident warps
            vector_width: 32,       // warp lanes
            peak_flops: 1.28e12,    // 1024 cores * 0.625 GHz * 2
            mem_bandwidth: 68.0e9,
            cache_bytes: 2 * 1024 * 1024,
            launch_overhead: 4.0e-6,
            tensor_core_speedup: 4.0,
            int8_speedup: 4.0,
            big_gpu: false,
        }
    }

    /// An NVIDIA A100-40GB.
    pub fn server_gpu() -> Device {
        Device {
            name: "a100",
            kind: DeviceKind::Gpu,
            parallel_width: 108 * 64, // 108 SMs * resident warps
            vector_width: 32,
            peak_flops: 19.5e12, // FP32 CUDA cores
            mem_bandwidth: 1555.0e9,
            cache_bytes: 40 * 1024 * 1024,
            launch_overhead: 1.5e-6,
            tensor_core_speedup: 8.0, // TF32 156 TFLOPS
            int8_speedup: 4.0,
            big_gpu: true,
        }
    }

    /// All three evaluation platforms, in the paper's figure order.
    pub fn all() -> Vec<Device> {
        vec![
            Device::mobile_cpu(),
            Device::mobile_gpu(),
            Device::server_gpu(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_compute() {
        let cpu = Device::mobile_cpu();
        let mgpu = Device::mobile_gpu();
        let a100 = Device::server_gpu();
        assert!(cpu.peak_flops < mgpu.peak_flops);
        assert!(mgpu.peak_flops < a100.peak_flops);
        assert!(cpu.mem_bandwidth < a100.mem_bandwidth);
    }

    #[test]
    fn only_a100_is_big_gpu() {
        assert!(!Device::mobile_cpu().big_gpu);
        assert!(!Device::mobile_gpu().big_gpu);
        assert!(Device::server_gpu().big_gpu);
    }

    #[test]
    fn ridge_intensity_is_positive() {
        for d in Device::all() {
            // Machine balance: FLOPs per byte at the roofline ridge.
            assert!(d.peak_flops / d.mem_bandwidth > 1.0, "{}", d.name);
            assert!(d.cache_bytes > 0, "{}", d.name);
        }
    }
}
