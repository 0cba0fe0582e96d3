//! GMAC/s of every compiled matmul backend over the workload's
//! characteristic shapes, so the kernel-throughput claims in
//! `crates/bench/README.md` are reproducible locally:
//!
//! ```bash
//! cargo bench -p hgpcn-bench --features simd --bench kernel_matmul
//! ```
//!
//! One group per matrix shape, one benchmark per backend
//! (`reference` / `blocked` / `avx2` when compiled in and supported).
//! Inputs are dense (no exact zeros), so elements/s × 1e-9 reads
//! directly as GMAC/s. Shapes:
//!
//! * `group_32x131x128` — one serial set-abstraction group
//!   (`k=32` neighbors, 128+3 features in, 128 out);
//! * `batched_4096x131x128` — the same layer over a stacked SoA batch
//!   (8 clouds × 16 groups × 32 rows);
//! * `head_512x128x13` — the narrow segmentation head, exercising the
//!   sub-tile column tail;
//! * `ingest_1024x3x64` — the coordinate-ingest layer (3 inputs wide).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hgpcn_bench::dense_matrix as dense;
use hgpcn_pcn::{LinearKernel, Matrix, Seam};

/// Like [`dense`] but with roughly half the entries exactly zero — the
/// sparsity a post-ReLU activation stream actually shows the kernels'
/// zero-skip.
fn half_sparse(rows: usize, cols: usize, phase: f32) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| {
                let v = ((i as f32 * 0.7311 + phase).sin() * 1.7) - 0.31;
                if v < 0.0 {
                    0.0
                } else if v == 0.0 {
                    0.125
                } else {
                    v
                }
            })
            .collect(),
    )
}

fn bench_kernels(c: &mut Criterion) {
    let shapes: &[(&str, usize, usize, usize, bool)] = &[
        ("group_32x131x128", 32, 131, 128, false),
        ("batched_4096x131x128", 4096, 131, 128, false),
        ("batched_sparse_4096x131x128", 4096, 131, 128, true),
        ("head_512x128x13", 512, 128, 13, false),
        ("ingest_1024x3x64", 1024, 3, 64, false),
    ];
    for &(name, rows, ins, outs, sparse) in shapes {
        let x = if sparse {
            half_sparse(rows, ins, 0.0)
        } else {
            dense(rows, ins, 0.0)
        };
        let w = dense(ins, outs, 1.0);
        let bias: Vec<f32> = (0..outs).map(|j| j as f32 * 0.01 - 0.2).collect();
        let mut group = c.benchmark_group(format!("kernel_matmul/{name}"));
        group.sample_size(10);
        // One element = one multiply-accumulate.
        group.throughput(Throughput::Elements((rows * ins * outs) as u64));
        for kernel in LinearKernel::all() {
            if !kernel.is_supported() {
                continue;
            }
            group.bench_function(BenchmarkId::new(kernel.name(), rows), |b| {
                b.iter(|| kernel.apply(&x, &w, &bias, true));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
