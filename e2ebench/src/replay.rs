//! The traced replay: the run's generated frames once more, through direct
//! calls into each layer's public functions, with a span around every
//! call. Nothing inside the program is instrumented; spans are kept in
//! memory and written out as a Chrome trace when the replay ends.
//!
//! Per frame (micro-batch for `object_cls`, as the runtime coalesced it):
//!
//! ```text
//! frame
//! ├── system.preproc       PreprocessingEngine::run_with_context
//! ├── preproc.layers       the same frame, decomposed:
//! │   ├── octree.build     Octree::build_with_scratch
//! │   ├── octree.table     OctreeTable::from_octree
//! │   └── sampling.ois     ois::sample_with_scratch
//! └── pcn.infer            PointNet::infer[_batch]_with_precision_using
//!     └── gather.veg ×N    VegGatherer::gather, via a timing Gatherer
//! ```
//!
//! A span's self time is its duration minus its children's:
//! `pcn.infer` self time is the dense MLP, pooling and FP interpolation
//! (`pcn.mlp_ms`); `preproc.layers` self time is the glue between the
//! three preprocessing layers.

use std::cell::RefCell;
use std::time::Instant;

use hgpcn_geometry::PointCloud;
use hgpcn_memsim::{HostMemory, OpCounts};
use hgpcn_octree::{Octree, OctreeScratch, OctreeTable};
use hgpcn_pcn::{CenterPolicy, Gatherer, InferenceOutput, PcnError, PointNet, Precision};
use hgpcn_runtime::frame_seed;
use hgpcn_sampling::ois::{self, OisScratch};
use hgpcn_system::{E2ePipeline, StreamPreprocContext, VegGatherer};

use crate::workload::{Fingerprint, Spec};

/// `octree.build + octree.table + sampling.ois` must lie within this
/// share of `system.preproc`. The two are separate executions of the same
/// frames; the decomposition leaves out the host-memory reload and the
/// final point gather, a few percent of the phase.
pub const PREPROC_SUM_TOLERANCE: f64 = 0.25;

/// One recorded span. Times are nanoseconds since the replay started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// `stream << 32 | frame index` of the frame the span serves (the
    /// lead frame for a micro-batch).
    pub frame: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, frame: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Summed duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Whether every span lies inside its parent's interval.
    pub fn nested(&self) -> bool {
        self.spans.iter().all(|s| {
            s.parent.is_none_or(|p| {
                let p = &self.spans[p];
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns
            })
        })
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        use minihttp::json::Json;
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::from(1usize)),
                    ("tid", Json::from(1usize)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::from(id)),
                            ("parent", s.parent.map_or(Json::Null, Json::from)),
                            ("stream", Json::Num((s.frame >> 32) as f64)),
                            ("frame", Json::Num((s.frame & 0xFFFF_FFFF) as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))]).to_string()
    }
}

/// A [`Gatherer`] that times every call of the [`VegGatherer`] it wraps.
struct TimedGatherer<'t> {
    inner: VegGatherer,
    tracer: &'t RefCell<Tracer>,
    parent: usize,
    frame: u64,
}

impl Gatherer for TimedGatherer<'_> {
    fn gather(
        &mut self,
        cloud: &PointCloud,
        centers: &[usize],
        k: usize,
    ) -> Result<Vec<Vec<usize>>, PcnError> {
        let id = self
            .tracer
            .borrow_mut()
            .open("gather.veg", Some(self.parent), self.frame);
        let out = self.inner.gather(cloud, centers, k);
        self.tracer.borrow_mut().close(id);
        out
    }

    fn counts(&self) -> OpCounts {
        Gatherer::counts(&self.inner)
    }
}

/// What the replay measured and checked.
pub struct Replay {
    pub tracer: Tracer,
    pub frames: usize,
    pub warm_builds: usize,
    pub macs: u64,
    /// Frames whose decomposed sampled cloud differs from
    /// `run_with_context`'s.
    pub sample_mismatches: usize,
    /// Frames whose replayed output differs from the reference.
    pub output_mismatches: usize,
}

fn frame_id(stream: usize, index: usize) -> u64 {
    ((stream as u64) << 32) | index as u64
}

/// Replays every generated frame, stream contexts in frame order.
pub fn run(
    spec: &Spec,
    clouds: &[Vec<PointCloud>],
    refs: &[Vec<Fingerprint>],
    net: &PointNet,
    seed: u64,
) -> Result<Replay, String> {
    let pipeline = E2ePipeline::prototype();
    let stages = net.stage_backends();
    let tracer = RefCell::new(Tracer::new());
    let streams = clouds.len();
    let mut contexts: Vec<StreamPreprocContext> =
        (0..streams).map(|_| StreamPreprocContext::new()).collect();
    let mut scratch: Vec<(OctreeScratch, OisScratch, HostMemory)> = (0..streams)
        .map(|_| {
            (
                OctreeScratch::new(),
                OisScratch::new(),
                HostMemory::from_points(Vec::new()),
            )
        })
        .collect();
    let (mut frames, mut warm_builds, mut macs) = (0, 0, 0);
    let (mut sample_mismatches, mut output_mismatches) = (0, 0);
    let batch = spec.max_batch.max(1);
    for index in 0..spec.frames_per_stream {
        // The runtime coalesces one frame per stream into a micro-batch of
        // up to `max_batch`; with `max_batch` 1 every frame runs alone.
        for group in (0..streams).collect::<Vec<_>>().chunks(batch) {
            let lead = frame_id(group[0], index);
            let root = tracer.borrow_mut().open("frame", None, lead);
            let mut sampled = Vec::with_capacity(group.len());
            for &s in group {
                let cloud = &clouds[s][index];
                let fseed = frame_seed(seed, s, index);
                let fid = frame_id(s, index);
                let mut t = tracer.borrow_mut();

                let id = t.open("system.preproc", Some(root), fid);
                let out = pipeline
                    .preproc
                    .run_with_context(
                        cloud,
                        spec.target_points,
                        fseed,
                        stages.sampling,
                        &mut contexts[s],
                    )
                    .map_err(|e| format!("replay preproc: {e}"))?;
                t.close(id);

                let (octree_scratch, ois_scratch, mem) = &mut scratch[s];
                let layers = t.open("preproc.layers", Some(root), fid);
                let id = t.open("octree.build", Some(layers), fid);
                let octree = Octree::build_with_scratch(
                    cloud,
                    pipeline.preproc.octree_config,
                    octree_scratch,
                )
                .map_err(|e| format!("replay octree: {e}"))?;
                t.close(id);
                let id = t.open("octree.table", Some(layers), fid);
                let table = OctreeTable::from_octree(&octree);
                t.close(id);
                mem.reload_cloud(octree.points());
                let id = t.open("sampling.ois", Some(layers), fid);
                let picked = ois::sample_with_scratch(
                    &octree,
                    &table,
                    mem,
                    spec.target_points,
                    fseed,
                    stages.sampling,
                    ois_scratch,
                )
                .map_err(|e| format!("replay sampling: {e}"))?;
                t.close(id);
                let decomposed = octree.points().gather(&picked.indices);
                t.close(layers);

                if octree.build_stats().reused {
                    warm_builds += 1;
                }
                let bits = |c: &PointCloud| -> Vec<[u32; 3]> {
                    c.points()
                        .iter()
                        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                        .collect()
                };
                if bits(&decomposed) != bits(&out.sampled) {
                    sample_mismatches += 1;
                }
                octree_scratch.recycle(octree);
                sampled.push(decomposed);
                contexts[s].recycle(out);
            }

            let infer = tracer.borrow_mut().open("pcn.infer", Some(root), lead);
            let mut gatherers: Vec<TimedGatherer> = group
                .iter()
                .map(|&s| TimedGatherer {
                    inner: VegGatherer::new(pipeline.inference.veg).with_kernel(stages.gather),
                    tracer: &tracer,
                    parent: infer,
                    frame: frame_id(s, index),
                })
                .collect();
            let policies: Vec<CenterPolicy> = group
                .iter()
                .map(|&s| CenterPolicy::Random {
                    seed: frame_seed(seed, s, index),
                })
                .collect();
            // The same engine call the runtime's inference worker makes:
            // the serial pass at `max_batch` 1, the batched pass above.
            let outputs: Vec<InferenceOutput> = if batch == 1 {
                vec![net
                    .infer_with_precision_using(
                        &sampled[0],
                        &mut gatherers[0],
                        policies[0],
                        Precision::F32,
                        stages,
                    )
                    .map_err(|e| format!("replay inference: {e}"))?]
            } else {
                let inputs: Vec<&PointCloud> = sampled.iter().collect();
                let mut grefs: Vec<&mut dyn Gatherer> = gatherers
                    .iter_mut()
                    .map(|g| g as &mut dyn Gatherer)
                    .collect();
                net.infer_batch_with_precision_using(
                    &inputs,
                    &mut grefs,
                    &policies,
                    Precision::F32,
                    stages,
                )
                .map_err(|e| format!("replay inference: {e}"))?
            };
            drop(gatherers);
            tracer.borrow_mut().close(infer);
            tracer.borrow_mut().close(root);

            for (&s, output) in group.iter().zip(&outputs) {
                frames += 1;
                macs += output.macs;
                if !Fingerprint::of(output).matches(&refs[s][index]) {
                    output_mismatches += 1;
                }
            }
        }
    }
    Ok(Replay {
        tracer: tracer.into_inner(),
        frames,
        warm_builds,
        macs,
        sample_mismatches,
        output_mismatches,
    })
}
