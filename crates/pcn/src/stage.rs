//! The preproc-stage kernel registry: every pipeline stage with
//! interchangeable, bit-identical backends, gathered behind one
//! [`StageBackends`] selection.
//!
//! PR 3 proved the dispatch-seam pattern on one primitive — the GEMM
//! behind [`crate::kernel::LinearKernel`]. This module generalizes it to
//! the rest of the frame pipeline, microkernel-style: mechanism (the
//! stage loops) lives in each stage's crate, policy (which loop to run)
//! is decided once per process per stage:
//!
//! * **sampling** — [`SamplingKernel`] (OIS scoreboard scans,
//!   `hgpcn_sampling::stage`), override `HGPCN_STAGE_SAMPLING`;
//! * **gather** — [`GatherKernel`] (top-K neighbor selection,
//!   `hgpcn_gather::stage`), override `HGPCN_STAGE_GATHER`;
//! * **interpolate** — [`InterpolateKernel`] (FP-stage 3-NN feature
//!   interpolation, this module), override `HGPCN_STAGE_INTERPOLATE`.
//!
//! Every stage has a portable scalar **anchor** (the original loop, kept
//! byte-for-byte) plus at least one optimized backend, and every backend
//! is **bit-identical** to its anchor — same outputs, same modeled
//! operation counts — so switching backends can change host speed only,
//! never results or committed latency quantiles. Each stage kernel
//! implements [`Seam`], so selection follows the one shared contract:
//! resolved once per process, and an unrecognized name **degrades to the
//! anchor** with a warning — a misspelled override must not take serving
//! down. See `ARCHITECTURE.md` for the full seam table.

use std::cmp::Ordering;
use std::fmt;
use std::sync::OnceLock;

use hgpcn_geometry::seam::Seam;
use hgpcn_geometry::Point3;
use hgpcn_memsim::OpCounts;

pub use hgpcn_gather::stage::GatherKernel;
pub use hgpcn_sampling::stage::SamplingKernel;

use crate::Matrix;

/// A feature-propagation interpolation backend. All variants are
/// bit-identical in results; they differ only in speed. See the
/// [module docs](self).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InterpolateKernel {
    /// The anchor: per fine point, one fused loop over the coarse
    /// points that computes each squared distance and immediately
    /// insertion-sorts it into the running top-3 — the original loop,
    /// kept byte-for-byte.
    Scalar,
    /// Split passes over an SoA copy of the coarse coordinates: an
    /// allocation-free elementwise distance loop (reused buffer,
    /// autovectorizable, same `sub/mul/add` expression per element — no
    /// FMA contraction, so bit-identical), then the identical top-3
    /// insertion scan over the buffered distances.
    Vectorized,
}

impl Seam for InterpolateKernel {
    const ENV: &'static str = "HGPCN_STAGE_INTERPOLATE";
    const ANCHOR: InterpolateKernel = InterpolateKernel::Scalar;

    fn all() -> &'static [InterpolateKernel] {
        &[InterpolateKernel::Scalar, InterpolateKernel::Vectorized]
    }

    fn name(&self) -> &'static str {
        match self {
            InterpolateKernel::Scalar => "scalar",
            InterpolateKernel::Vectorized => "vectorized",
        }
    }

    fn cell() -> &'static OnceLock<InterpolateKernel> {
        static CELL: OnceLock<InterpolateKernel> = OnceLock::new();
        &CELL
    }
}

impl InterpolateKernel {
    /// Inverse-distance 3-NN interpolation of `coarse` features onto the
    /// `fine` coordinates (PointNet++'s FP rule), tallying the search
    /// cost into `counts`. This is the loop every segmentation forward
    /// pass runs `fine × coarse` times per FP layer.
    ///
    /// NaN coordinates follow the anchor's comparator exactly: a NaN
    /// distance compares `Equal` under `partial_cmp`, so it never
    /// displaces a finite candidate on any backend.
    ///
    /// ```
    /// use hgpcn_geometry::Point3;
    /// use hgpcn_memsim::OpCounts;
    /// use hgpcn_pcn::stage::InterpolateKernel;
    /// use hgpcn_pcn::Matrix;
    ///
    /// let fine = vec![Point3::ORIGIN, Point3::splat(0.9)];
    /// let coarse = vec![Point3::ORIGIN, Point3::splat(1.0), Point3::new(4.0, 0.0, 0.0)];
    /// let feats = Matrix::from_vec(3, 1, vec![10.0, 20.0, 30.0]);
    ///
    /// let mut c1 = OpCounts::default();
    /// let mut c2 = OpCounts::default();
    /// let a = InterpolateKernel::Scalar.apply(&fine, &coarse, &feats, &mut c1);
    /// let b = InterpolateKernel::Vectorized.apply(&fine, &coarse, &feats, &mut c2);
    /// assert_eq!(a, b);   // bit-identical features on every backend
    /// assert_eq!(c1, c2); // and identical modeled costs
    /// ```
    pub fn apply(
        &self,
        fine: &[Point3],
        coarse: &[Point3],
        coarse_feats: &Matrix,
        counts: &mut OpCounts,
    ) -> Matrix {
        match self {
            InterpolateKernel::Scalar => apply_scalar(fine, coarse, coarse_feats, counts),
            InterpolateKernel::Vectorized => apply_vectorized(fine, coarse, coarse_feats, counts),
        }
    }
}

/// The anchor interpolation loop, kept byte-for-byte.
///
/// The top-3 selection is an allocation-free insertion into a fixed
/// array, equivalent element-for-element to the original
/// push / stable-sort / truncate loop (same comparator —
/// `partial_cmp(..).unwrap_or(Equal)` — same stable tie-break, same
/// resulting candidate *order*, hence bit-identical interpolation
/// weights).
fn apply_scalar(
    fine: &[Point3],
    coarse: &[Point3],
    coarse_feats: &Matrix,
    counts: &mut OpCounts,
) -> Matrix {
    let dim = coarse_feats.cols();
    let mut out = Matrix::zeros(fine.len(), dim);
    for (r, &p) in fine.iter().enumerate() {
        // Distances to every coarse point; keep the best three. A new
        // candidate starts at the back and slides left past strictly
        // greater entries — exactly where a stable sort of the appended
        // list would place it (NaN distances compare `Equal` and thus
        // never displace anything, as before).
        let mut best = [(0.0f32, 0usize); 3];
        let mut blen = 0usize;
        for (ci, &c) in coarse.iter().enumerate() {
            counts.distance_computations += 1;
            counts.comparisons += 1;
            let d = p.distance_sq(c);
            if blen < 3 {
                best[blen] = (d, ci);
                blen += 1;
            } else if best[2].0.partial_cmp(&d) == Some(Ordering::Greater) {
                // Would displace the current third-best; the old
                // third-best is what truncate(3) used to drop.
                best[2] = (d, ci);
            } else {
                continue;
            }
            let mut j = blen - 1;
            while j > 0 && best[j - 1].0.partial_cmp(&best[j].0) == Some(Ordering::Greater) {
                best.swap(j - 1, j);
                j -= 1;
            }
        }
        counts.mem_reads += coarse.len() as u64;
        counts.bytes_read += coarse.len() as u64 * 12;
        accumulate_row(&best, blen, coarse_feats, out.row_mut(r));
    }
    out
}

/// The vectorized backend: SoA coarse coordinates, a reused distance
/// buffer filled by a branch-free elementwise loop, then the anchor's
/// top-3 insertion scan over the buffer. Each distance is the same
/// `(p - c)` then `dx·dx + dy·dy + dz·dz` expression as
/// `Point3::distance_sq` (rustc performs no FMA contraction), so every
/// buffered value — and therefore every selected index and weight — is
/// bit-identical to the anchor's.
fn apply_vectorized(
    fine: &[Point3],
    coarse: &[Point3],
    coarse_feats: &Matrix,
    counts: &mut OpCounts,
) -> Matrix {
    let dim = coarse_feats.cols();
    let mut out = Matrix::zeros(fine.len(), dim);
    let n = coarse.len();
    let mut cx = Vec::with_capacity(n);
    let mut cy = Vec::with_capacity(n);
    let mut cz = Vec::with_capacity(n);
    for &c in coarse {
        cx.push(c.x);
        cy.push(c.y);
        cz.push(c.z);
    }
    let mut d2 = vec![0.0f32; n];
    for (r, &p) in fine.iter().enumerate() {
        for i in 0..n {
            let dx = p.x - cx[i];
            let dy = p.y - cy[i];
            let dz = p.z - cz[i];
            d2[i] = dx * dx + dy * dy + dz * dz;
        }
        let mut best = [(0.0f32, 0usize); 3];
        let mut blen = 0usize;
        for (ci, &d) in d2.iter().enumerate() {
            if blen < 3 {
                best[blen] = (d, ci);
                blen += 1;
            } else if best[2].0.partial_cmp(&d) == Some(Ordering::Greater) {
                best[2] = (d, ci);
            } else {
                continue;
            }
            let mut j = blen - 1;
            while j > 0 && best[j - 1].0.partial_cmp(&best[j].0) == Some(Ordering::Greater) {
                best.swap(j - 1, j);
                j -= 1;
            }
        }
        // Charged per fine point, exactly as the anchor's in-loop
        // increments sum to.
        counts.distance_computations += n as u64;
        counts.comparisons += n as u64;
        counts.mem_reads += n as u64;
        counts.bytes_read += n as u64 * 12;
        accumulate_row(&best, blen, coarse_feats, out.row_mut(r));
    }
    out
}

/// The shared weight/accumulate tail: inverse-distance weights over the
/// selected candidates in their selection order, one multiply-add chain
/// per feature column — identical float sequence on both backends.
fn accumulate_row(best: &[(f32, usize); 3], blen: usize, coarse_feats: &Matrix, row: &mut [f32]) {
    let mut wsum = 0.0f32;
    let mut weights = [(0.0f32, 0usize); 3];
    for (wslot, &(d, ci)) in weights[..blen].iter_mut().zip(&best[..blen]) {
        *wslot = (1.0 / (d + 1e-8), ci);
    }
    for &(w, _) in &weights[..blen] {
        wsum += w;
    }
    for &(w, ci) in &weights[..blen] {
        let f = coarse_feats.row(ci);
        let scale = w / wsum;
        for (o, &v) in row.iter_mut().zip(f) {
            *o += scale * v;
        }
    }
}

/// One backend selection per pipeline stage — the unit the runtime
/// resolves once per run, threads through every engine call, and
/// reports in `RuntimeReport::stage_backends`.
///
/// ```
/// use hgpcn_pcn::stage::StageBackends;
/// use hgpcn_pcn::Seam;
///
/// let anchor = StageBackends::anchor();
/// assert_eq!(
///     anchor.as_pairs(),
///     [("sampling", "scalar"), ("gather", "scalar"), ("interpolate", "scalar")]
/// );
/// assert_eq!(anchor.to_string(), "sampling=scalar gather=scalar interpolate=scalar");
/// // The process-wide selection honors the HGPCN_STAGE_* overrides.
/// let active = StageBackends::active();
/// assert!(active.sampling.is_supported());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StageBackends {
    /// OIS scoreboard-scan backend (`HGPCN_STAGE_SAMPLING`).
    pub sampling: SamplingKernel,
    /// Neighbor top-K selection backend (`HGPCN_STAGE_GATHER`).
    pub gather: GatherKernel,
    /// FP-stage interpolation backend (`HGPCN_STAGE_INTERPOLATE`).
    pub interpolate: InterpolateKernel,
}

impl StageBackends {
    /// The process-wide selection: each stage's `active()` choice,
    /// i.e. the per-stage `HGPCN_STAGE_*` override if set, otherwise
    /// the fastest supported backend.
    pub fn active() -> StageBackends {
        StageBackends {
            sampling: SamplingKernel::active(),
            gather: GatherKernel::active(),
            interpolate: InterpolateKernel::active(),
        }
    }

    /// Every stage pinned to its portable scalar anchor — the
    /// yardstick configuration benches and equivalence tests compare
    /// optimized backends against.
    pub fn anchor() -> StageBackends {
        StageBackends {
            sampling: SamplingKernel::ANCHOR,
            gather: GatherKernel::ANCHOR,
            interpolate: InterpolateKernel::ANCHOR,
        }
    }

    /// `(stage, backend name)` pairs in pipeline order — the iteration
    /// the `/metrics` info series and the report renderers share.
    pub fn as_pairs(&self) -> [(&'static str, &'static str); 3] {
        [
            ("sampling", self.sampling.name()),
            ("gather", self.gather.name()),
            ("interpolate", self.interpolate.name()),
        ]
    }
}

impl fmt::Display for StageBackends {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sampling={} gather={} interpolate={}",
            self.sampling.name(),
            self.gather.name(),
            self.interpolate.name()
        )
    }
}

impl Default for StageBackends {
    /// Defaults to [`StageBackends::active`], matching how a freshly
    /// constructed [`crate::PointNet`] selects its matmul kernel.
    fn default() -> StageBackends {
        StageBackends::active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clouds() -> (Vec<Point3>, Vec<Point3>, Matrix) {
        let fine: Vec<Point3> = (0..37)
            .map(|i| {
                let f = i as f32;
                Point3::new(
                    (f * 0.618).fract() * 3.0,
                    (f * 0.414).fract() * 3.0,
                    (f * 0.732).fract() * 3.0,
                )
            })
            .collect();
        let coarse: Vec<Point3> = (0..11)
            .map(|i| {
                let f = i as f32 + 0.5;
                Point3::new(
                    (f * 0.317).fract() * 3.0,
                    (f * 0.553).fract() * 3.0,
                    (f * 0.871).fract() * 3.0,
                )
            })
            .collect();
        let feats = Matrix::from_vec(
            11,
            5,
            (0..55).map(|i| (i as f32 * 0.37).sin() * 2.0).collect(),
        );
        (fine, coarse, feats)
    }

    #[test]
    fn backends_are_bit_identical_with_identical_counts() {
        let (fine, coarse, feats) = clouds();
        let mut c1 = OpCounts::default();
        let mut c2 = OpCounts::default();
        let a = InterpolateKernel::Scalar.apply(&fine, &coarse, &feats, &mut c1);
        let b = InterpolateKernel::Vectorized.apply(&fine, &coarse, &feats, &mut c2);
        let same = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same);
        assert_eq!(c1, c2);
    }

    #[test]
    fn backends_agree_on_degenerate_coarse_sets() {
        // Fewer than 3 coarse points, duplicates, and NaN coordinates.
        let configs: Vec<Vec<Point3>> = vec![
            vec![Point3::ORIGIN],
            vec![Point3::ORIGIN, Point3::ORIGIN],
            vec![
                Point3::new(f32::NAN, 0.0, 0.0),
                Point3::ORIGIN,
                Point3::splat(1.0),
                Point3::ORIGIN,
            ],
        ];
        let fine = vec![Point3::splat(0.3), Point3::new(f32::NAN, 1.0, 0.0)];
        for coarse in configs {
            let feats = Matrix::from_vec(
                coarse.len(),
                2,
                (0..coarse.len() * 2).map(|i| i as f32 * 0.5).collect(),
            );
            let mut c1 = OpCounts::default();
            let mut c2 = OpCounts::default();
            let a = InterpolateKernel::Scalar.apply(&fine, &coarse, &feats, &mut c1);
            let b = InterpolateKernel::Vectorized.apply(&fine, &coarse, &feats, &mut c2);
            let same = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "coarse={}", coarse.len());
            assert_eq!(c1, c2);
        }
    }

    #[test]
    fn registry_bundles_all_three_stages() {
        let anchor = StageBackends::anchor();
        assert_eq!(anchor.sampling, SamplingKernel::Scalar);
        assert_eq!(anchor.gather, GatherKernel::Scalar);
        assert_eq!(anchor.interpolate, InterpolateKernel::Scalar);
        let active = StageBackends::active();
        assert_eq!(active, StageBackends::default());
    }
}
