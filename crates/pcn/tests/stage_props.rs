//! Interpolate-backend equivalence: every [`InterpolateKernel`] backend
//! must be **bit-identical** to the scalar anchor — same interpolated
//! features down to the last ulp, same NaN propagation, same modeled
//! operation counts — across ragged shapes (empty fine sets, coarse
//! sets smaller than the top-3 window, zero-width feature matrices) and
//! adversarial inputs (NaN coordinates on either side, exact duplicate
//! coarse points, coincident fine/coarse pairs that drive the
//! inverse-distance weight to its 1e-8 epsilon).
//!
//! Feature values are kept finite, matching `kernel_props.rs`'s
//! finite-weight carve-out: network features are finite by construction
//! (they come out of matmuls over finite weights), and the weighted
//! accumulation is only bit-comparable when the candidate *order* —
//! not just the candidate set — matches, which the tests assert via
//! full output equality.

use proptest::prelude::*;

use hgpcn_geometry::Point3;
use hgpcn_memsim::OpCounts;
use hgpcn_pcn::{InterpolateKernel, Matrix, Seam};

/// Coordinates with NaN and exact duplicates mixed into finite values.
/// `kind` 0 snaps onto a small lattice (duplicates and coincident
/// fine/coarse pairs), 1 injects a NaN component.
fn arb_points(range: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec((0u8..=7, -5.0f32..5.0, -5.0f32..5.0, -5.0f32..5.0), range).prop_map(
        |picks| {
            picks
                .into_iter()
                .map(|(kind, x, y, z)| match kind {
                    0 => Point3::new(x.round(), y.round(), z.round()),
                    1 => Point3::new(f32::NAN, y, z),
                    _ => Point3::new(x, y, z),
                })
                .collect()
        },
    )
}

fn backends_under_test() -> Vec<InterpolateKernel> {
    InterpolateKernel::all()
        .iter()
        .copied()
        .filter(|k| *k != InterpolateKernel::Scalar && k.is_supported())
        .collect()
}

fn assert_bits_equal(a: &Matrix, b: &Matrix, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.rows(), b.rows(), "{}: row count", what);
    prop_assert_eq!(a.cols(), b.cols(), "{}: col count", what);
    for r in 0..a.rows() {
        for (c, (x, y)) in a.row(r).iter().zip(b.row(r)).enumerate() {
            let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            prop_assert!(same, "{}: ({}, {}): {:?} vs {:?}", what, r, c, x, y);
        }
    }
    Ok(())
}

proptest! {
    /// Bit-identical interpolated features and identical modeled counts
    /// on every backend, across ragged fine/coarse/feature shapes.
    #[test]
    fn backends_are_bit_identical_across_shapes(
        fine in arb_points(0..40),
        coarse in arb_points(1..25),
        dim in 0usize..6,
        seed in 0u32..1000,
    ) {
        let phase = seed as f32 * 0.173;
        let feats = Matrix::from_vec(
            coarse.len(),
            dim,
            (0..coarse.len() * dim)
                .map(|i| ((i as f32 * 0.59 + phase).sin() * 3.0) - 0.7)
                .collect(),
        );

        let mut anchor_counts = OpCounts::default();
        let want = InterpolateKernel::Scalar.apply(&fine, &coarse, &feats, &mut anchor_counts);

        for backend in backends_under_test() {
            let mut counts = OpCounts::default();
            let got = backend.apply(&fine, &coarse, &feats, &mut counts);
            assert_bits_equal(&got, &want, backend.name())?;
            prop_assert_eq!(counts, anchor_counts, "{}: modeled counts", backend.name());
        }
    }

    /// Degenerate coarse sets — below the top-3 window, all-duplicate,
    /// or a single NaN point — interpolate identically on every backend.
    #[test]
    fn backends_agree_on_degenerate_coarse_sets(
        fine in arb_points(1..20),
        pick in 0usize..4,
        dim in 1usize..4,
    ) {
        let coarse: Vec<Point3> = match pick {
            0 => vec![Point3::ORIGIN],
            1 => vec![Point3::splat(2.0); 2],
            2 => vec![Point3::splat(-1.0); 5],
            _ => vec![Point3::new(f32::NAN, f32::NAN, f32::NAN)],
        };
        let feats = Matrix::from_vec(
            coarse.len(),
            dim,
            (0..coarse.len() * dim).map(|i| i as f32 * 0.25 - 1.0).collect(),
        );

        let mut anchor_counts = OpCounts::default();
        let want = InterpolateKernel::Scalar.apply(&fine, &coarse, &feats, &mut anchor_counts);
        for backend in backends_under_test() {
            let mut counts = OpCounts::default();
            let got = backend.apply(&fine, &coarse, &feats, &mut counts);
            assert_bits_equal(&got, &want, backend.name())?;
            prop_assert_eq!(counts, anchor_counts, "{}: modeled counts", backend.name());
        }
    }
}
