//! The [`Seam`] contract, checked once over every dispatch seam of the
//! workspace: names round-trip, `auto` picks the fastest supported
//! backend, unknown names degrade to the anchor, and the process-wide
//! selection is the environment's request resolved once.

use std::fmt::Debug;

use hgpcn_gather::GatherKernel;
use hgpcn_geometry::seam::Seam;
use hgpcn_pcn::{InterpolateKernel, LinearKernel};
use hgpcn_sampling::SamplingKernel;
use hgpcn_system::PreprocReuse;

fn contract<S: Seam + Debug>() {
    let env = S::ENV;
    assert!(S::all().contains(&S::ANCHOR), "{env}: anchor compiled in");
    assert!(S::ANCHOR.is_supported(), "{env}: anchor runs everywhere");
    for k in S::all() {
        assert_eq!(S::from_name(k.name()), Some(*k), "{env}: name round-trips");
        if k.is_supported() {
            assert_eq!(S::resolve(k.name()), *k, "{env}: supported pin honored");
        }
    }
    assert_eq!(S::from_name("no-such-backend"), None, "{env}");

    let fastest = S::fastest_supported();
    assert!(fastest.is_supported(), "{env}");
    assert_eq!(S::resolve(""), fastest, "{env}: empty means auto");
    assert_eq!(S::resolve("auto"), fastest, "{env}");
    assert_eq!(
        S::resolve("no-such-backend"),
        S::ANCHOR,
        "{env}: typo degrades"
    );

    let first = S::active();
    assert!(first.is_supported(), "{env}");
    assert_eq!(S::active(), first, "{env}: decided once per process");
    let request = std::env::var(env).unwrap_or_default();
    assert_eq!(first, S::resolve(&request), "{env}: honors the environment");
}

#[test]
fn every_seam_keeps_the_contract() {
    contract::<LinearKernel>();
    contract::<SamplingKernel>();
    contract::<GatherKernel>();
    contract::<InterpolateKernel>();
    contract::<PreprocReuse>();
}
