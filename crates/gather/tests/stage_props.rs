//! Gather-backend equivalence: every [`GatherKernel`] backend must be
//! **bit-identical** to the scalar anchor — same selected candidates,
//! same order, same float bits — across ragged list lengths, `k` beyond
//! the list length, `k = 0`, duplicate distances, and non-finite
//! (NaN / ±∞) distance keys.
//!
//! Indices are kept unique (each candidate's index is its position in
//! the list), matching how every call site builds the scored list by
//! enumerating candidates. Uniqueness is load-bearing: the canonical
//! `(total_cmp(distance), index)` comparator is a *strict* total order
//! exactly because no two entries share both key and index, which is
//! what licenses the blocked backend's unstable partition step.

use proptest::prelude::*;

use hgpcn_gather::stage::GatherKernel;
use hgpcn_geometry::seam::Seam;

/// Distance keys with NaN, ±∞, ±0.0 and duplicates mixed into ordinary
/// finite values. (NaN distances reach `top_k` for real: a NaN query or
/// candidate coordinate flows through `distance_sq` into the key.)
fn arb_distances(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0u8..=9, -100.0f32..100.0), 0..max_len).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(kind, v)| match kind {
                0 => 0.0,
                1 => -0.0,
                2 => f32::NAN,
                3 => f32::INFINITY,
                4 => f32::NEG_INFINITY,
                5 => 1.0, // a guaranteed-repeated finite key
                _ => v,
            })
            .collect()
    })
}

fn backends_under_test() -> Vec<GatherKernel> {
    GatherKernel::all()
        .iter()
        .copied()
        .filter(|k| *k != GatherKernel::Scalar && k.is_supported())
        .collect()
}

proptest! {
    /// Every optimized backend selects the same candidates in the same
    /// order as the anchor, down to the bits of the distance keys.
    #[test]
    fn backends_are_bit_identical(dists in arb_distances(200), k in 0usize..70) {
        let scored: Vec<(f32, usize)> =
            dists.into_iter().enumerate().map(|(i, d)| (d, i)).collect();

        let mut want = scored.clone();
        GatherKernel::Scalar.top_k(&mut want, k);
        prop_assert_eq!(want.len(), k.min(scored.len()));

        for backend in backends_under_test() {
            let mut got = scored.clone();
            backend.top_k(&mut got, k);
            prop_assert_eq!(got.len(), want.len(), "{}: kept count", backend.name());
            for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.1, w.1, "{}: index at slot {}", backend.name(), slot);
                prop_assert_eq!(
                    g.0.to_bits(),
                    w.0.to_bits(),
                    "{}: distance bits at slot {}",
                    backend.name(),
                    slot
                );
            }
        }
    }

    /// `k >= len` degenerates to a full sort on every backend — the
    /// whole list comes back, canonically ordered, on all of them.
    #[test]
    fn oversized_k_returns_everything(dists in arb_distances(40), extra in 0usize..5) {
        let scored: Vec<(f32, usize)> =
            dists.into_iter().enumerate().map(|(i, d)| (d, i)).collect();
        let k = scored.len() + extra;
        let mut want = scored.clone();
        GatherKernel::Scalar.top_k(&mut want, k);
        prop_assert_eq!(want.len(), scored.len());
        for backend in backends_under_test() {
            let mut got = scored.clone();
            backend.top_k(&mut got, k);
            prop_assert_eq!(got.len(), want.len(), "{}: kept count", backend.name());
            for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
                // (NaN != NaN under PartialEq, so compare the bits.)
                prop_assert_eq!(
                    (g.0.to_bits(), g.1),
                    (w.0.to_bits(), w.1),
                    "{}: slot {}",
                    backend.name(),
                    slot
                );
            }
        }
    }
}
