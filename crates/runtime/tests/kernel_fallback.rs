//! A forced `HGPCN_KERNEL=simd` on a platform that cannot honour it (no
//! `simd` feature compiled in, or no AVX2 on the CPU) must degrade to
//! the blocked scalar backend and still serve correctly — a forced
//! configuration never takes the fleet down.
//!
//! This lives in its own integration-test binary because the kernel is
//! selected once per process: the override has to be in place before
//! anything touches a matmul.

use hgpcn_pcn::{LinearKernel, PointNet, PointNetConfig, Seam};
use hgpcn_runtime::{ArrivalModel, Runtime, RuntimeConfig, StreamSpec, SyntheticSource};

#[test]
fn forced_simd_request_degrades_and_serves() {
    // Set before any kernel dispatch happens in this process.
    std::env::set_var("HGPCN_KERNEL", "simd");

    let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 3);
    // The process-wide selection honoured the request if it could and
    // degraded if it could not — it never refuses outright. Either way
    // a forced `simd` resolves to exactly what auto-detection would
    // pick (AVX2 when compiled + detected, the blocked scalar backend
    // otherwise), which is the real dispatch rule, not a re-derivation.
    let expected = LinearKernel::fastest_supported().name();
    assert_eq!(net.kernel().name(), expected);

    let runtime = Runtime::new(
        RuntimeConfig::default()
            .preproc_workers(1)
            .inference_workers(1)
            .target_points(512)
            .arrival(ArrivalModel::Backlogged)
            .max_batch(4),
    )
    .expect("valid config");
    let streams = vec![
        StreamSpec::new("a", SyntheticSource::new(1500, 10.0, 3, 1)),
        StreamSpec::new("b", SyntheticSource::new(1600, 10.0, 3, 2)),
    ];
    let report = runtime.run(streams, &net).expect("degraded backend serves");
    assert_eq!(report.total_frames, 6);
    assert_eq!(report.kernel_backend, expected);
}
