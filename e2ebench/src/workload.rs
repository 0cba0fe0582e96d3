//! The three workloads: what each one serves, the frames it generates from
//! the seed, and the direct in-process reference every served frame is
//! checked against.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use hgpcn_datasets::kitti::{KittiConfig, KittiStream};
use hgpcn_datasets::modelnet::{self, ModelNetObject};
use hgpcn_datasets::{DriftingScene, DriftingSceneConfig};
use hgpcn_geometry::PointCloud;
use hgpcn_pcn::{InferenceOutput, PointNet, PointNetConfig, Precision};
use hgpcn_runtime::{frame_seed, RuntimeConfig};
use hgpcn_system::E2ePipeline;

/// Which workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One KITTI-like 64-beam stream → OIS to 4096 → Pointnet++(s).
    LidarSeg,
    /// Eight streams of ModelNet-like objects → 1024 → Pointnet++(c),
    /// micro-batched.
    ObjectCls,
    /// Two AABB-stable drifting scenes → 1024 → Pointnet++(s), over HTTP
    /// JSON-RPC.
    DriftWire,
}

/// Everything that defines one workload. The frames of a stream are
/// generated once per run; every serving session submits frames
/// `0..frames_per_stream` of each stream in order, so frame `i` of stream
/// `s` always carries the same cloud and the same per-frame seed, and one
/// reference per `(s, i)` checks every session.
#[derive(Clone, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub streams: usize,
    /// Frames per stream per session; frame 0 is the warm-up frame.
    pub frames_per_stream: usize,
    pub target_points: usize,
    pub max_batch: usize,
    pub queue_capacity: usize,
    /// Closed loop: frames kept in flight per stream.
    pub inflight: usize,
    /// Open loop: fixed aggregate offered rate (frames/s), about half the
    /// closed-loop throughput at seed 1 on a 2-vCPU host.
    pub open_rate_fps: f64,
    /// Closed loop: completions per throughput window.
    pub window: usize,
}

impl Spec {
    pub fn from_name(name: &str) -> Option<Spec> {
        let spec = match name {
            "lidar_seg" => Spec {
                kind: Kind::LidarSeg,
                name: "lidar_seg",
                streams: 1,
                frames_per_stream: 24,
                target_points: 4096,
                max_batch: 1,
                queue_capacity: 8,
                inflight: 2,
                open_rate_fps: 2.1,
                window: 4,
            },
            "object_cls" => Spec {
                kind: Kind::ObjectCls,
                name: "object_cls",
                streams: 8,
                frames_per_stream: 8,
                target_points: 1024,
                max_batch: 8,
                queue_capacity: 16,
                inflight: 2,
                open_rate_fps: 4.4,
                window: 8,
            },
            "drift_wire" => Spec {
                kind: Kind::DriftWire,
                name: "drift_wire",
                streams: 2,
                frames_per_stream: 16,
                target_points: 1024,
                max_batch: 1,
                queue_capacity: 8,
                inflight: 2,
                open_rate_fps: 5.5,
                window: 6,
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn net_config(&self) -> PointNetConfig {
        match self.kind {
            Kind::ObjectCls => PointNetConfig::classification(),
            Kind::LidarSeg | Kind::DriftWire => {
                PointNetConfig::semantic_segmentation(self.target_points)
            }
        }
    }

    /// The runtime every session of this workload serves with: one
    /// preproc and one inference worker, default backends and reuse
    /// policy, `seed` as the base of every per-frame seed.
    pub fn runtime_config(&self, seed: u64) -> RuntimeConfig {
        RuntimeConfig::default()
            .preproc_workers(1)
            .inference_workers(1)
            .queue_capacity(self.queue_capacity)
            .target_points(self.target_points)
            .max_batch(self.max_batch)
            .seed(seed)
    }

    /// Generates `clouds[stream][frame]` from `seed`.
    pub fn generate(&self, seed: u64) -> Vec<Vec<PointCloud>> {
        let m = self.frames_per_stream;
        match self.kind {
            // Consecutive spins of one drive: the scene moves and returns
            // drop out, so the root AABB changes every frame.
            Kind::LidarSeg => vec![KittiStream::new(KittiConfig::standard(), seed)
                .take(m)
                .map(|f| f.cloud)
                .collect()],
            // Each stream cycles through the object classes, so
            // consecutive frames of a stream never share a root AABB.
            Kind::ObjectCls => (0..self.streams)
                .map(|s| {
                    (0..m)
                        .map(|i| {
                            let object = ModelNetObject::ALL[(s + i) % ModelNetObject::ALL.len()];
                            let salt = ((s * m + i) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            modelnet::generate(object, 2048, seed ^ salt)
                        })
                        .collect()
                })
                .collect(),
            Kind::DriftWire => (0..self.streams)
                .map(|s| {
                    let scene = DriftingScene::new(
                        DriftingSceneConfig::default(),
                        seed.wrapping_add(s as u64),
                    );
                    (0..m).map(|i| scene.frame(i)).collect()
                })
                .collect(),
        }
    }
}

/// `(stream, frame index)`.
pub type Frame = (usize, usize);

/// What the benchmark compares of one frame's output. The logits are
/// compared through a 64-bit hash of their bit patterns, so a run keeps
/// only a few words per served frame; over the wire, where the server
/// reports only the class, row count and MACs, `logits` is `None`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub macs: u64,
    pub predicted_class: usize,
    pub logits: Option<u64>,
}

impl Fingerprint {
    pub fn of(output: &InferenceOutput) -> Fingerprint {
        let logits = &output.logits;
        let mut hasher = DefaultHasher::new();
        logits.cols().hash(&mut hasher);
        for r in 0..logits.rows() {
            for v in logits.row(r) {
                v.to_bits().hash(&mut hasher);
            }
        }
        Fingerprint {
            rows: logits.rows(),
            macs: output.macs,
            predicted_class: output.predicted_class(0),
            logits: Some(hasher.finish()),
        }
    }

    /// Equal on every field this fingerprint carries.
    pub fn matches(&self, reference: &Fingerprint) -> bool {
        self.rows == reference.rows
            && self.macs == reference.macs
            && self.predicted_class == reference.predicted_class
            && self.logits.is_none_or(|h| reference.logits == Some(h))
    }
}

/// Computes `refs[stream][frame]` through the stateless engine calls
/// (`PreprocessingEngine::run_using` + `InferenceEngine::
/// run_with_precision_using`) with the runtime's per-frame seeds, on two
/// threads. The runtime serves through stream contexts and (for
/// `object_cls`) micro-batches, so agreement checks both against the
/// plain per-frame path.
pub fn references(
    spec: &Spec,
    clouds: &[Vec<PointCloud>],
    net: &PointNet,
    seed: u64,
) -> Result<Vec<Vec<Fingerprint>>, String> {
    let pipeline = E2ePipeline::prototype();
    let stages = net.stage_backends();
    let jobs: Vec<Frame> = (0..clouds.len())
        .flat_map(|s| (0..clouds[s].len()).map(move |i| (s, i)))
        .collect();
    let run = |(s, i): Frame| -> Result<Fingerprint, String> {
        let fseed = frame_seed(seed, s, i);
        let pre = pipeline
            .preproc
            .run_using(&clouds[s][i], spec.target_points, fseed, stages.sampling)
            .map_err(|e| format!("reference preproc of frame {i} of stream {s}: {e}"))?;
        let inf = pipeline
            .inference
            .run_with_precision_using(&pre.sampled, net, fseed, Precision::F32, stages)
            .map_err(|e| format!("reference inference of frame {i} of stream {s}: {e}"))?;
        Ok(Fingerprint::of(&inf.output))
    };
    let half = |parity: usize| -> Result<Vec<(Frame, Fingerprint)>, String> {
        jobs.iter()
            .skip(parity)
            .step_by(2)
            .map(|&job| Ok((job, run(job)?)))
            .collect()
    };
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(|| half(1));
        (half(0), other.join().expect("reference thread panicked"))
    });
    let mut refs: Vec<Vec<Option<Fingerprint>>> =
        clouds.iter().map(|c| vec![None; c.len()]).collect();
    for ((s, i), f) in a?.into_iter().chain(b?) {
        refs[s][i] = Some(f);
    }
    Ok(refs
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|f| f.expect("every frame has a job"))
                .collect()
        })
        .collect())
}
