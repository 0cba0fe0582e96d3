//! The untraced run: serving sessions driven by one generator thread, in
//! a closed-loop and an open-loop phase, timed on the host wall clock from
//! outside the program.
//!
//! Every session is a fresh runtime that submits frames `0..m` of each
//! stream in order. Frame 0 is the warm-up frame: the session's set-up
//! time runs from `PointNet::new` to stream 0's warm-up result. The phase
//! then serves frames `1..m` of every stream until the run's measurement
//! budget is spent.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use hgpcn_geometry::PointCloud;
use hgpcn_pcn::PointNet;
use hgpcn_runtime::{FrameStatus, FrameTicket, RuntimeReport, ServingRuntime, StreamProfile};

use crate::stats;
use crate::workload::{Fingerprint, Frame, Spec};

/// What one session measures after its warm-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Set-up time only.
    SetupOnly,
    /// A fixed number of frames in flight per stream; measures throughput.
    Closed,
    /// Sends on a fixed schedule at the workload's offered rate; measures
    /// latency from each frame's scheduled send time.
    Open,
}

/// The outcome of polling one frame.
pub enum Poll {
    Pending,
    /// The frame completed with this output.
    Done(Fingerprint),
    Failed,
}

/// A serving front end the generator drives: the in-process runtime or
/// the HTTP server. Tickets are `(stream, frame index)`; the runtime
/// assigns frame indices in submission order, so a submission whose index
/// differs from the requested one is refused as a failure.
pub trait Target {
    fn submit(&mut self, stream: usize, index: usize, samples: &mut Samples) -> Result<(), String>;
    fn poll(&mut self, stream: usize, index: usize, wait: bool, samples: &mut Samples) -> Poll;
    /// Reads interleaved with the writes (the HTTP target's stats and
    /// metrics scrapes); `completed` counts the session's completions.
    fn after_completion(&mut self, _completed: usize, _samples: &mut Samples) {}
    /// Frames queued between stages right now.
    fn queue_depth(&self) -> usize;
    /// Granularity of the open loop's non-blocking polls, or `None` to
    /// poll the oldest frame with a blocking wait.
    fn poll_interval(&self) -> Option<Duration>;
    /// One timed `stats()` call, then shutdown. Returns the snapshot and
    /// the call's duration in milliseconds.
    fn finish(self) -> Result<(RuntimeReport, f64), String>;
}

/// The environment a run actually served with, as the runtime reports it.
#[derive(Clone, Debug, Default)]
pub struct Env {
    pub kernel_backend: String,
    pub stage_backends: Vec<(String, String)>,
    pub preproc_reuse: String,
    pub precision: String,
}

/// Raw samples gathered over all sessions of a run.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub window_fps: Vec<f64>,
    pub latency_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub wait_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Every served frame's output, checked against the references
    /// once the untraced run is over.
    pub outputs: Vec<(Frame, Fingerprint)>,
    pub closed_frames: usize,
    pub open_frames: usize,
    /// Memsim-modeled `[preproc, inference, E2eReport::total()]` of every
    /// served frame, in nanoseconds.
    pub modeled_ns: Vec<[f64; 3]>,
    /// Engine wall time (`wall_preproc_s + wall_infer_s`) of every served
    /// frame, in milliseconds.
    pub engine_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub mean_batch: Vec<f64>,
    pub queue_depth_max: usize,
    pub stats_ms: Vec<f64>,
    pub submit_rtt_ms: Vec<f64>,
    pub poll_rtt_ms: Vec<f64>,
    pub scrape_ms: Vec<f64>,
    /// Interleaved stats and metrics reads that failed.
    pub failed_reads: usize,
    pub wire_bytes: u64,
    pub rss_base_kib: u64,
    pub rss_peak_kib: u64,
    pub measured_s: f64,
    pub sessions: usize,
    pub env: Env,
    last_probe: Option<Instant>,
}

impl Samples {
    /// Empty samples, with the RSS baseline taken now.
    pub fn new() -> Samples {
        let base = stats::status_kib("VmRSS");
        Samples {
            rss_base_kib: base,
            rss_peak_kib: base,
            ..Samples::default()
        }
    }

    /// Folds the kernel's peak-RSS mark into the sampled peak. Called once
    /// the untraced run is over, before anything else allocates.
    pub fn finish_rss(&mut self) {
        self.rss_peak_kib = self.rss_peak_kib.max(stats::status_kib("VmHWM"));
    }

    /// Samples RSS and queue depth, at most every 5 ms.
    fn probe<T: Target>(&mut self, target: &T) {
        self.queue_depth_max = self.queue_depth_max.max(target.queue_depth());
        let now = Instant::now();
        if self
            .last_probe
            .is_some_and(|t| now - t < Duration::from_millis(5))
        {
            return;
        }
        self.last_probe = Some(now);
        self.rss_peak_kib = self.rss_peak_kib.max(stats::status_kib("VmRSS"));
    }

    fn done(&mut self, stream: usize, index: usize, output: Fingerprint) {
        self.outputs.push(((stream, index), output));
    }
}

/// Runs one session: boot, warm-up, `phase` within `budget_s` seconds of
/// measurement, then a timed `stats()` and shutdown. Returns the phase's
/// measured duration in seconds.
pub fn session<T: Target>(
    spec: &Spec,
    phase: Phase,
    budget_s: f64,
    boot: impl FnOnce() -> Result<T, String>,
    samples: &mut Samples,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut target = boot()?;
    let streams = if phase == Phase::SetupOnly {
        1
    } else {
        spec.streams
    };
    for s in 0..streams {
        submit(&mut target, s, 0, samples)?;
        match target.poll(s, 0, true, samples) {
            Poll::Done(output) => samples.done(s, 0, output),
            _ => return Err(format!("warm-up frame of stream {s} did not complete")),
        }
        if s == 0 {
            samples.setup_s.push(t0.elapsed().as_secs_f64());
        }
    }
    let mut sojourn_ms = HashMap::new();
    let measured = match phase {
        Phase::SetupOnly => 0.0,
        Phase::Closed => closed_loop(&mut target, spec, budget_s, samples),
        Phase::Open => open_loop(&mut target, spec, budget_s, samples, &mut sojourn_ms),
    };
    samples.probe(&target);
    let (report, stats_ms) = target.finish()?;
    samples.sessions += 1;
    if phase == Phase::SetupOnly {
        return Ok(0.0);
    }
    samples.stats_ms.push(stats_ms);
    if phase == Phase::Closed {
        // Each warm-up frame was waited for alone: take its batch of one
        // out of the phase's mean. A serial runtime reports no batches.
        let b = &report.batching;
        let warmups = spec.streams;
        samples.mean_batch.push(if b.batches > warmups {
            let frames = (b.mean_batch_size * b.batches as f64).round() - warmups as f64;
            frames / (b.batches - warmups) as f64
        } else {
            b.mean_batch_size
        });
    }
    for rec in &report.records {
        let m = &rec.modeled;
        samples.modeled_ns.push([
            m.preprocess.latency.ns(),
            m.inference.latency.ns(),
            m.total().ns(),
        ]);
        let engine_ms = (rec.wall_preproc_s + rec.wall_infer_s) * 1e3;
        samples.engine_ms.push(engine_ms);
        if let Some(soj) = sojourn_ms.get(&(rec.stream_id, rec.frame_index)) {
            samples.wait_ms.push(soj - engine_ms);
        }
    }
    samples.env = Env {
        kernel_backend: report.kernel_backend.to_owned(),
        stage_backends: report
            .stage_backends
            .as_pairs()
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        preproc_reuse: report.preproc_reuse.to_owned(),
        precision: report.precision.to_owned(),
    };
    Ok(measured)
}

fn submit<T: Target>(
    target: &mut T,
    stream: usize,
    index: usize,
    samples: &mut Samples,
) -> Result<(), String> {
    samples.attempted += 1;
    target.submit(stream, index, samples).inspect_err(|_| {
        samples.failed += 1;
    })
}

fn closed_loop<T: Target>(
    target: &mut T,
    spec: &Spec,
    budget_s: f64,
    samples: &mut Samples,
) -> f64 {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(budget_s);
    let m = spec.frames_per_stream;
    let mut next = vec![1usize; spec.streams];
    let mut fifo = VecDeque::new();
    for _ in 0..spec.inflight {
        for (s, n) in next.iter_mut().enumerate() {
            if *n < m && submit(target, s, *n, samples).is_ok() {
                fifo.push_back((s, *n));
            }
            *n += 1;
        }
    }
    let mut done_at = Vec::new();
    while let Some((s, i)) = fifo.pop_front() {
        match target.poll(s, i, true, samples) {
            Poll::Done(output) => samples.done(s, i, output),
            Poll::Failed | Poll::Pending => samples.failed += 1,
        }
        let now = Instant::now();
        done_at.push(now);
        samples.closed_frames += 1;
        target.after_completion(done_at.len(), samples);
        samples.probe(target);
        if next[s] < m && now < deadline {
            if submit(target, s, next[s], samples).is_ok() {
                fifo.push_back((s, next[s]));
            }
            next[s] += 1;
        }
    }
    // Throughput in windows of `window` consecutive completions, each
    // starting at a completion, so pipeline fill is never counted.
    let k = spec.window;
    let mut first = 0;
    while first + k < done_at.len() {
        let span = (done_at[first + k] - done_at[first]).as_secs_f64();
        if span > 0.0 {
            samples.window_fps.push(k as f64 / span);
        }
        first += k;
    }
    done_at.last().map_or(0.0, |t| (*t - start).as_secs_f64())
}

fn open_loop<T: Target>(
    target: &mut T,
    spec: &Spec,
    budget_s: f64,
    samples: &mut Samples,
    sojourn_ms: &mut HashMap<(usize, usize), f64>,
) -> f64 {
    let period = Duration::from_secs_f64(1.0 / spec.open_rate_fps);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(budget_s);
    let mut total = spec.streams * (spec.frames_per_stream - 1);
    let mut k = 0usize;
    // (stream, index, due, sent), in send order; the runtime completes
    // frames in that order, so only the head needs polling.
    let mut fifo: VecDeque<(usize, usize, Instant, Instant)> = VecDeque::new();
    let mut last_done = start;
    let mut next_poll = start;
    loop {
        let now = Instant::now();
        let due = start + period * k as u32;
        if k < total && due > deadline {
            total = k;
        }
        if k < total && now >= due {
            let (s, i) = (k % spec.streams, 1 + k / spec.streams);
            k += 1;
            if submit(target, s, i, samples).is_ok() {
                let sent = Instant::now();
                samples.lag_ms.push((sent - due).as_secs_f64() * 1e3);
                fifo.push_back((s, i, due, sent));
            }
            continue;
        }
        if fifo.is_empty() && k >= total {
            break;
        }
        if !fifo.is_empty() && now >= next_poll {
            let interval = target.poll_interval();
            while let Some(&(s, i, due, sent)) = fifo.front() {
                let outcome = target.poll(s, i, interval.is_none(), samples);
                let seen = Instant::now();
                match outcome {
                    Poll::Pending => break,
                    Poll::Done(output) => {
                        samples.done(s, i, output);
                        samples.latency_ms.push((seen - due).as_secs_f64() * 1e3);
                        sojourn_ms.insert((s, i), (seen - sent).as_secs_f64() * 1e3);
                    }
                    Poll::Failed => samples.failed += 1,
                }
                fifo.pop_front();
                samples.open_frames += 1;
                last_done = seen;
                target.after_completion(samples.open_frames, samples);
                if interval.is_none() {
                    break; // a send may have fallen due while waiting
                }
            }
            next_poll = Instant::now() + interval.unwrap_or_default();
        }
        samples.probe(target);
        let now = Instant::now();
        let mut wake = if fifo.is_empty() { due } else { next_poll };
        if k < total {
            wake = wake.min(due);
        }
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
    (last_done - start).as_secs_f64()
}

/// The in-process target: a [`ServingRuntime`] driven through its public
/// session API.
pub struct InProcess<'a> {
    rt: ServingRuntime,
    clouds: &'a [Vec<PointCloud>],
}

impl<'a> InProcess<'a> {
    /// Builds the network and starts the runtime (the timed set-up).
    pub fn boot(
        spec: &Spec,
        seed: u64,
        clouds: &'a [Vec<PointCloud>],
    ) -> Result<InProcess<'a>, String> {
        let net = PointNet::new(spec.net_config(), seed);
        let rt =
            ServingRuntime::start(spec.runtime_config(seed), net).map_err(|e| e.to_string())?;
        for s in 0..spec.streams {
            rt.open_stream(StreamProfile::new(format!("{}-{s}", spec.name)).nominal_fps(10.0))
                .map_err(|e| e.to_string())?;
        }
        Ok(InProcess { rt, clouds })
    }
}

/// Sensor timestamp of frame `index` of a 10 Hz stream.
pub fn sensor_ts(index: usize) -> f64 {
    index as f64 * 0.1
}

impl Target for InProcess<'_> {
    fn submit(&mut self, stream: usize, index: usize, samples: &mut Samples) -> Result<(), String> {
        let cloud = self.clouds[stream][index].clone();
        let t = Instant::now();
        let ticket = self.rt.submit(stream, sensor_ts(index), cloud);
        samples.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        match ticket {
            Ok(t) if t.frame_index == index => Ok(()),
            Ok(t) => Err(format!(
                "stream {stream}: got frame index {}, expected {index}",
                t.frame_index
            )),
            Err(e) => Err(e.to_string()),
        }
    }

    fn poll(&mut self, stream: usize, index: usize, wait: bool, _samples: &mut Samples) -> Poll {
        let ticket = FrameTicket {
            stream_id: stream,
            frame_index: index,
        };
        let status = if wait {
            self.rt.wait(ticket)
        } else {
            self.rt.poll(ticket)
        };
        match status {
            Ok(FrameStatus::Pending) => Poll::Pending,
            Ok(FrameStatus::Done(result)) => Poll::Done(Fingerprint::of(&result.output)),
            Ok(FrameStatus::Failed(_)) | Err(_) => Poll::Failed,
        }
    }

    fn queue_depth(&self) -> usize {
        self.rt.queue_depth()
    }

    fn poll_interval(&self) -> Option<Duration> {
        Some(Duration::from_micros(500))
    }

    fn finish(self) -> Result<(RuntimeReport, f64), String> {
        let t = Instant::now();
        let report = self.rt.stats();
        let stats_ms = t.elapsed().as_secs_f64() * 1e3;
        self.rt.shutdown().map_err(|e| e.to_string())?;
        Ok((report, stats_ms))
    }
}
