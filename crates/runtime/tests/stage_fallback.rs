//! A bogus `HGPCN_STAGE_*` override must degrade that stage to its
//! scalar anchor — with the degradation visible in the report's
//! `stage_backends` — and still serve. Stage backends are optimization
//! hints: a misspelled override never takes the fleet down (every seam,
//! `HGPCN_KERNEL` included, warns and degrades to its anchor).
//!
//! This lives in its own integration-test binary because each stage
//! backend is selected once per process: the override has to be in
//! place before anything dispatches a stage kernel.

use hgpcn_pcn::{PointNet, PointNetConfig, Seam, StageBackends};
use hgpcn_runtime::{ArrivalModel, Runtime, RuntimeConfig, StreamSpec, SyntheticSource};

#[test]
fn bogus_stage_override_degrades_to_anchor_and_serves() {
    // Set before any stage dispatch happens in this process: the gather
    // stage is forced to a nonsense backend. The other two stages keep
    // whatever the process environment selects (auto-selection locally;
    // the CI stage-axis legs also run this binary with every
    // HGPCN_STAGE_* pinned or bogus, so their expectation is read from
    // the same resolution the net uses rather than hard-coded).
    std::env::set_var("HGPCN_STAGE_GATHER", "quantum");
    let ambient = StageBackends::active();

    let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 3);
    // The bogus request degraded to the scalar anchor; the untouched
    // stages still follow the process-wide selection.
    assert_eq!(net.stage_backends().gather.name(), "scalar");
    assert_eq!(net.stage_backends().sampling, ambient.sampling);

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
    // The degradation is reported, not hidden: the report names the
    // anchor for the forced stage and the ambient selection elsewhere.
    assert_eq!(report.stage_backends.gather.name(), "scalar");
    assert_eq!(
        report.stage_backends.sampling.name(),
        ambient.sampling.name()
    );
    assert_eq!(
        report.stage_backends.interpolate.name(),
        ambient.interpolate.name()
    );
    for stream in &report.streams {
        assert_eq!(stream.stage_backends, report.stage_backends);
    }
}

#[test]
fn config_pin_to_anchor_overrides_process_selection() {
    // A per-run config pin beats both the env override and the net's
    // process-wide selection — the yardstick configuration benches use.
    let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 3);
    let runtime = Runtime::new(
        RuntimeConfig::default()
            .preproc_workers(1)
            .inference_workers(1)
            .target_points(512)
            .arrival(ArrivalModel::Backlogged)
            .max_batch(1)
            .stage_backends(StageBackends::anchor()),
    )
    .expect("valid config");
    let streams = vec![StreamSpec::new("a", SyntheticSource::new(1500, 10.0, 2, 1))];
    let report = runtime
        .run(streams, &net)
        .expect("anchor-pinned run serves");
    assert_eq!(report.total_frames, 2);
    assert_eq!(report.stage_backends.sampling.name(), "scalar");
    assert_eq!(report.stage_backends.gather.name(), "scalar");
    assert_eq!(report.stage_backends.interpolate.name(), "scalar");
}
