//! `HGPCN_KERNEL=reference` pins the whole serving runtime to the
//! reference scalar kernel (the non-AVX2 fallback of last resort), and
//! the served results are bit-identical to any other backend's — the
//! override knob changes host speed, never answers.
//!
//! Own binary: kernel selection is once-per-process, so the env
//! override must precede the first matmul.

use hgpcn_pcn::{LinearKernel, PointNet, PointNetConfig, Seam};
use hgpcn_runtime::{ArrivalModel, Runtime, RuntimeConfig, StreamSpec, SyntheticSource};

fn config() -> RuntimeConfig {
    RuntimeConfig::default()
        .preproc_workers(1)
        .inference_workers(1)
        .target_points(512)
        .arrival(ArrivalModel::Backlogged)
        .max_batch(4)
}

fn fleet() -> Vec<StreamSpec> {
    (0..3)
        .map(|i| {
            StreamSpec::new(
                format!("s{i}"),
                SyntheticSource::new(1500 + 90 * i, 10.0, 2, i as u64),
            )
        })
        .collect()
}

#[test]
fn forced_reference_serves_identically() {
    std::env::set_var("HGPCN_KERNEL", "reference");

    let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 5);
    assert_eq!(net.kernel().name(), "reference");
    let runtime = Runtime::new(config()).expect("valid config");
    let report = runtime
        .run(fleet(), &net)
        .expect("reference backend serves");
    assert_eq!(report.total_frames, 6);
    assert_eq!(report.kernel_backend, "reference");

    // Same fleet on an explicitly pinned blocked-kernel network: every
    // frame's modeled results and logits-derived numbers must be
    // bit-identical — backends only move wall time.
    let blocked = PointNet::new(PointNetConfig::semantic_segmentation(512), 5)
        .with_kernel(LinearKernel::Blocked);
    let other = runtime
        .run(fleet(), &blocked)
        .expect("blocked backend serves");
    assert_eq!(other.kernel_backend, "blocked");
    assert_eq!(report.total_frames, other.total_frames);
    for (a, b) in report.records.iter().zip(&other.records) {
        assert_eq!((a.stream_id, a.frame_index), (b.stream_id, b.frame_index));
        assert_eq!(a.modeled.inference.latency, b.modeled.inference.latency);
        assert_eq!(a.modeled.inference.counts, b.modeled.inference.counts);
    }
}
