//! End-to-end and per-layer host-wall benchmark of the HgPCN serving
//! runtime. See `README.md` beside this package for every metric, the
//! workloads and how to read the traced replay.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload lidar_seg|object_cls|drift_wire --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The line
//! before it records the environment, the counts and the checks.

mod drive;
mod replay;
mod stats;
mod wire;
mod workload;

use std::process::ExitCode;

use hgpcn_pcn::PointNet;
use minihttp::json::Json;

use drive::{session, InProcess, Phase, Samples};
use stats::{mean, median, quantile};
use workload::{Kind, Spec};

/// Set-up-only sessions at the start of every run, on top of the one
/// set-up sample each measured session gives.
const SETUP_ONLY_SESSIONS: usize = 3;

/// Measured sessions cycle through this pattern: the open loop gets two
/// thirds of the sessions because its tail percentile needs the samples.
const PATTERN: [Phase; 3] = [Phase::Closed, Phase::Open, Phase::Open];

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Spec::from_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (lidar_seg | object_cls | drift_wire)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 | 1)")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(50.0),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let spec = &args.spec;
    let seed = args.seed;
    let clouds = spec.generate(seed);
    let ref_net = PointNet::new(spec.net_config(), seed);
    let bodies = match spec.kind {
        Kind::DriftWire => wire::submit_bodies(&clouds),
        _ => Vec::new(),
    };

    // The untraced run.
    let mut samples = Samples::new();
    let mut sessions = (0..SETUP_ONLY_SESSIONS)
        .map(|_| Phase::SetupOnly)
        .chain(PATTERN.iter().copied().cycle());
    let mut measured_sessions = 0;
    while measured_sessions < 2 || samples.measured_s < args.seconds {
        let phase = sessions.next().expect("cycle is endless");
        let budget = (args.seconds - samples.measured_s).max(1.0);
        let measured = match spec.kind {
            Kind::DriftWire => session(
                spec,
                phase,
                budget,
                || wire::Wire::boot(spec, seed, &bodies),
                &mut samples,
            )?,
            _ => session(
                spec,
                phase,
                budget,
                || InProcess::boot(spec, seed, &clouds),
                &mut samples,
            )?,
        };
        if phase != Phase::SetupOnly {
            measured_sessions += 1;
            samples.measured_s += measured;
        }
    }

    // Peak memory is read before the references are computed.
    samples.finish_rss();
    let refs = workload::references(spec, &clouds, &ref_net, seed)?;
    let mismatched = samples
        .outputs
        .iter()
        .filter(|((s, i), out)| !out.matches(&refs[*s][*i]))
        .count();
    samples.failed += mismatched;
    let mut checks = vec![
        ("outputs_match_reference", mismatched == 0),
        ("interleaved_reads_succeeded", samples.failed_reads == 0),
        (
            "modeled_parts_sum_to_total",
            samples.modeled_ns.iter().all(|[p, i, t]| p + i == *t),
        ),
    ];
    let [modeled_pre_ms, modeled_inf_ms, modeled_frame_ms] =
        median_frame(&samples.modeled_ns).map(|ns| ns / 1e6);

    let metrics = if args.trace {
        let replay = replay::run(spec, &clouds, &refs, &ref_net, seed)?;
        write_trace(spec, seed, &replay.tracer)?;
        per_layer(
            &samples,
            &replay,
            modeled_pre_ms,
            modeled_inf_ms,
            &mut checks,
        )
    } else {
        let served = samples.attempted.saturating_sub(samples.failed);
        vec![
            metric("setup_s", "s", median(&samples.setup_s)),
            metric("throughput_fps", "frames/s", median(&samples.window_fps)),
            metric("latency_p50_ms", "ms", quantile(&samples.latency_ms, 0.5)),
            metric("latency_p90_ms", "ms", quantile(&samples.latency_ms, 0.9)),
            metric(
                "served_frac",
                "ratio",
                served as f64 / samples.attempted.max(1) as f64,
            ),
            metric(
                "peak_rss_mb",
                "MB",
                samples.rss_peak_kib.saturating_sub(samples.rss_base_kib) as f64 / 1024.0,
            ),
            metric("modeled_frame_ms", "ms", modeled_frame_ms),
        ]
    };

    let correct = checks.iter().all(|(_, ok)| *ok);
    println!("{}", summary(args, &samples, &checks, &metrics));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(samples.attempted)),
        ("failed", Json::from(samples.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ]);
    if metrics.iter().any(|m| !m.value.is_finite()) {
        return Err(format!("non-finite metric in {result}"));
    }
    println!("{result}");
    Ok(())
}

/// The modeled `[preproc, inference, total]` of the frame whose total is
/// the median (nearest rank), so the reported parts belong to the reported
/// total.
fn median_frame(modeled: &[[f64; 3]]) -> [f64; 3] {
    let mut frames = modeled.to_vec();
    frames.sort_by(|a, b| a[2].total_cmp(&b[2]));
    frames
        .get(frames.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or_default()
}

fn per_layer(
    samples: &Samples,
    replay: &replay::Replay,
    modeled_pre_ms: f64,
    modeled_inf_ms: f64,
    checks: &mut Vec<(&'static str, bool)>,
) -> Vec<Metric> {
    let t = &replay.tracer;
    let frames = replay.frames.max(1) as f64;
    let per_frame_ms = |ns: u64| ns as f64 / 1e6 / frames;
    let (build, table, ois) = (
        t.total_ns("octree.build"),
        t.total_ns("octree.table"),
        t.total_ns("sampling.ois"),
    );
    let preproc = t.total_ns("system.preproc");
    let infer = t.total_ns("pcn.infer");
    let veg = t.total_ns("gather.veg");
    // Self time of `pcn.infer`: its gather children lie inside it.
    let mlp = infer.saturating_sub(veg);
    let layer_sum = (build + table + ois) as f64;
    checks.extend([
        ("spans_nest_in_parents", t.nested()),
        ("veg_plus_mlp_equals_infer", veg + mlp == infer),
        (
            "preproc_layers_within_tolerance",
            (layer_sum - preproc as f64).abs() <= replay::PREPROC_SUM_TOLERANCE * preproc as f64,
        ),
        (
            "decomposed_samples_bit_equal",
            replay.sample_mismatches == 0,
        ),
        (
            "replay_outputs_match_reference",
            replay.output_mismatches == 0,
        ),
    ]);
    let engine_ms = mean(&samples.engine_ms);
    vec![
        metric("octree.build_ms", "ms", per_frame_ms(build)),
        metric("octree.table_ms", "ms", per_frame_ms(table)),
        metric("sampling.ois_ms", "ms", per_frame_ms(ois)),
        metric("system.preproc_ms", "ms", per_frame_ms(preproc)),
        metric(
            "octree.warm_hit_ratio",
            "ratio",
            replay.warm_builds as f64 / t.count("octree.build").max(1) as f64,
        ),
        metric("gather.veg_ms", "ms", per_frame_ms(veg)),
        metric(
            "gather.calls",
            "count",
            t.count("gather.veg") as f64 / frames,
        ),
        metric("pcn.infer_ms", "ms", per_frame_ms(infer)),
        metric("pcn.mlp_ms", "ms", per_frame_ms(mlp)),
        metric(
            "pcn.gmacs",
            "GMAC/s",
            replay.macs as f64 / (mlp.max(1) as f64 / 1e9) / 1e9,
        ),
        metric("pcn.macs_per_frame", "count", replay.macs as f64 / frames),
        metric("modeled.preproc_ms", "ms", modeled_pre_ms),
        metric("modeled.infer_ms", "ms", modeled_inf_ms),
        metric("runtime.submit_us", "us", median(&samples.submit_us)),
        metric("runtime.mean_batch", "frames", mean(&samples.mean_batch)),
        metric(
            "runtime.queue_depth_max",
            "frames",
            samples.queue_depth_max as f64,
        ),
        metric("runtime.wait_ms", "ms", median(&samples.wait_ms)),
        metric("runtime.stats_ms", "ms", median(&samples.stats_ms)),
        metric("serve.submit_rtt_ms", "ms", median(&samples.submit_rtt_ms)),
        metric("serve.poll_rtt_ms", "ms", median(&samples.poll_rtt_ms)),
        metric("serve.metrics_scrape_ms", "ms", median(&samples.scrape_ms)),
        metric(
            "serve.bytes_per_frame",
            "B",
            samples.wire_bytes as f64 / (samples.attempted.max(1) as f64),
        ),
        metric(
            "bench.generator_lag_ms",
            "ms",
            quantile(&samples.lag_ms, 0.9),
        ),
        metric(
            "bench.trace_overhead",
            "ratio",
            per_frame_ms(preproc + infer) / engine_ms.max(f64::MIN_POSITIVE),
        ),
    ]
}

fn write_trace(spec: &Spec, seed: u64, tracer: &replay::Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{seed}.json", spec.name));
    std::fs::write(&path, tracer.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "e2ebench: wrote {} spans to {}",
        tracer.spans.len(),
        path.display()
    );
    Ok(())
}

/// The line before the result: what ran, where, with what counts and
/// checks, plus every reported metric with its unit.
fn summary(args: &Args, s: &Samples, checks: &[(&'static str, bool)], metrics: &[Metric]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::str(args.spec.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        (
            "env",
            Json::obj([
                ("nproc", Json::from(nproc)),
                ("cargo_features", Json::str("default")),
                ("kernel_backend", Json::str(s.env.kernel_backend.clone())),
                (
                    "stage_backends",
                    Json::obj(
                        s.env
                            .stage_backends
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::str(v.clone()))),
                    ),
                ),
                ("preproc_reuse", Json::str(s.env.preproc_reuse.clone())),
                ("precision", Json::str(s.env.precision.clone())),
                ("preproc_workers", Json::from(1usize)),
                ("inference_workers", Json::from(1usize)),
                ("max_batch", Json::from(args.spec.max_batch)),
                ("open_rate_fps", Json::from(args.spec.open_rate_fps)),
            ]),
        ),
        (
            "counts",
            Json::obj([
                ("attempted", Json::from(s.attempted)),
                ("succeeded", Json::from(s.attempted - s.failed)),
                ("failed", Json::from(s.failed)),
                ("checked", Json::from(s.outputs.len())),
                ("closed_loop_frames", Json::from(s.closed_frames)),
                ("open_loop_frames", Json::from(s.open_frames)),
                ("throughput_windows", Json::from(s.window_fps.len())),
                ("setup_samples", Json::from(s.setup_s.len())),
                ("sessions", Json::from(s.sessions)),
                ("measured_s", Json::from(s.measured_s)),
            ]),
        ),
        (
            "checks",
            Json::obj(checks.iter().map(|(name, ok)| (*name, Json::Bool(*ok)))),
        ),
        (
            "metrics",
            Json::obj(
                metrics
                    .iter()
                    .map(|m| (format!("{} [{}]", m.name, m.unit), Json::Num(m.value))),
            ),
        ),
    ])
}
