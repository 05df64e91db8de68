//! # lassi-gpusim
//!
//! A simulated NVIDIA A100-class GPU that *functionally executes* CudaLite
//! kernels and reports analytic runtimes.
//!
//! The simulator plays the role the physical A100 plays in the LASSI paper:
//!
//! * **functional execution** — every thread of every block runs through the
//!   ParC evaluator, so generated code produces real stdout and real runtime
//!   failures (out-of-bounds, illegal host-pointer dereference, barrier
//!   divergence), which is what the execution self-correction loop needs;
//! * **performance model** — operation counts and memory traffic from the
//!   evaluator are converted into simulated seconds by an SM/occupancy/
//!   bandwidth model ([`DeviceSpec`]), so translated programs that serialize
//!   work or add extra transfers show the same qualitative slowdowns the
//!   paper reports (e.g. the 20× `bsearch` regression).
//!
//! Thread blocks execute one after another, in grid order, on the calling
//! thread, so float `atomicAdd` results are deterministic; the harness
//! worker pool is the only place scenarios run in parallel. Threads within a
//! block run in lock-step *segments* delimited by top-level
//! `__syncthreads()` calls, which models barrier semantics without needing
//! one OS thread per CUDA thread.

pub mod cost;
pub mod device;
pub mod exec;

pub use cost::KernelCostModel;
pub use device::DeviceSpec;
pub use exec::GpuSimulator;

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::{parse, Dialect};
    use lassi_runtime::{HostInterpreter, ParallelBackend, RunConfig};

    #[test]
    fn vector_add_end_to_end() {
        let src = r#"
        __global__ void vadd(float* out, const float* a, const float* b, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = a[i] + b[i]; }
        }
        int main() {
            int n = 1000;
            float* h_a = (float*)malloc(n * sizeof(float));
            float* h_b = (float*)malloc(n * sizeof(float));
            float* h_out = (float*)malloc(n * sizeof(float));
            for (int i = 0; i < n; i++) { h_a[i] = i; h_b[i] = 2 * i; }
            float* d_a;
            float* d_b;
            float* d_out;
            cudaMalloc(&d_a, n * sizeof(float));
            cudaMalloc(&d_b, n * sizeof(float));
            cudaMalloc(&d_out, n * sizeof(float));
            cudaMemcpy(d_a, h_a, n * sizeof(float), cudaMemcpyHostToDevice);
            cudaMemcpy(d_b, h_b, n * sizeof(float), cudaMemcpyHostToDevice);
            vadd<<<(n + 255) / 256, 256>>>(d_out, d_a, d_b, n);
            cudaDeviceSynchronize();
            cudaMemcpy(h_out, d_out, n * sizeof(float), cudaMemcpyDeviceToHost);
            double checksum = 0.0;
            for (int i = 0; i < n; i++) { checksum += h_out[i]; }
            printf("checksum %.1f\n", checksum);
            return 0;
        }
        "#;
        let program = parse(src, Dialect::CudaLite).unwrap();
        let gpu = GpuSimulator::a100();
        let mut interp = HostInterpreter::new(&program, RunConfig::default());
        let report = interp.run(&gpu, &[]).unwrap();
        // sum_{i<1000} 3i = 3 * 999 * 1000 / 2
        assert_eq!(report.stdout, "checksum 1498500.0\n");
        assert!(report.parallel_seconds > 0.0);
    }

    #[test]
    fn backend_name() {
        assert_eq!(GpuSimulator::a100().name(), "gpusim-a100");
    }
}
