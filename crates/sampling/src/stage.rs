//! The sampling stage kernel: pluggable OIS scoreboard-scan backends
//! with one-time runtime dispatch.
//!
//! OIS spends its per-pick time in two scans over the voxel scoreboard
//! (score every voxel against the new pick; select the farthest voxel
//! with points remaining — the Sampling Modules of Fig. 7). This module
//! names those scan implementations behind a [`SamplingKernel`],
//! mirroring the `hgpcn_pcn::kernel::LinearKernel` seam:
//!
//! > Every backend picks **bit-identical** sample indices to
//! > [`SamplingKernel::Scalar`]: the scans are pure `u32` Chebyshev
//! > arithmetic (exact on every backend), and the batched backend's
//! > branchless min/max reductions compute element-for-element the same
//! > values with the same first-maximum / least-picked tie-breaks.
//! > Modeled operation counts are identical by construction — both
//! > backends charge one scoreboard op per voxel per scan.
//!
//! Selection follows the shared [`Seam`] contract:
//! `SamplingKernel::active()` resolves the `HGPCN_STAGE_SAMPLING`
//! environment variable once per process (`auto`/empty picks the
//! batched scan; an unrecognized name warns and degrades to the scalar
//! anchor).

use std::sync::OnceLock;

use hgpcn_geometry::seam::Seam;

/// An OIS scoreboard-scan backend. All variants are bit-identical in
/// the samples they pick; they differ only in speed. See the
/// [module docs](self).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SamplingKernel {
    /// The anchor: the original per-voxel loops (branching Chebyshev
    /// axis distance, `Option`-tracked argmax), kept byte-for-byte.
    Scalar,
    /// Batched SoA scans: branchless saturating-subtract Chebyshev
    /// distances over the cached voxel boxes (autovectorizable `u32`
    /// min/max chains) and a select pass that reads the per-slot point
    /// counts from a scoreboard-resident cache instead of chasing
    /// Octree-Table rows. Integer arithmetic is exact, so equivalence
    /// to the anchor is structural, not approximate.
    Batched,
}

impl Seam for SamplingKernel {
    const ENV: &'static str = "HGPCN_STAGE_SAMPLING";
    const ANCHOR: SamplingKernel = SamplingKernel::Scalar;

    fn all() -> &'static [SamplingKernel] {
        &[SamplingKernel::Scalar, SamplingKernel::Batched]
    }

    fn name(&self) -> &'static str {
        match self {
            SamplingKernel::Scalar => "scalar",
            SamplingKernel::Batched => "batched",
        }
    }

    fn cell() -> &'static OnceLock<SamplingKernel> {
        static CELL: OnceLock<SamplingKernel> = OnceLock::new();
        &CELL
    }
}
