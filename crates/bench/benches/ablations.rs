//! Ablations over the main design choices:
//!
//! * octree leaf capacity (table size vs sampling work);
//! * number of parallel Sampling Modules / scoring lanes (modeled
//!   Down-sampling Unit latency);
//! * exact vs approximate OIS (§VIII future work);
//! * paper vs semi-approximate VEG (§VIII future work);
//! * DSU bitonic sorter width (modeled sort-stage cycles).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hgpcn_bench::figures::golden_cloud;
use hgpcn_gather::veg::{self, VegConfig, VegMode};
use hgpcn_gather::{dsu::DataStructuringUnit, sorter};
use hgpcn_memsim::HostMemory;
use hgpcn_octree::{Octree, OctreeConfig, OctreeTable};
use hgpcn_sampling::hw::DownsamplingUnit;
use hgpcn_sampling::ois;

fn ablate_leaf_capacity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_leaf_capacity");
    group.sample_size(10);
    let cloud = golden_cloud(30_000, 1);
    for &cap in &[4usize, 8, 24, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            let cfg = OctreeConfig::new().max_depth(10).leaf_capacity(cap);
            b.iter(|| {
                let tree = Octree::build(&cloud, cfg).unwrap();
                let table = OctreeTable::from_octree(&tree);
                let mut mem = HostMemory::from_cloud(tree.points());
                ois::sample(&tree, &table, &mut mem, 512, 1).unwrap()
            })
        });
    }
    group.finish();
}

fn ablate_sampling_modules(c: &mut Criterion) {
    // Modeled Down-sampling Unit latency vs parallelism (pure model — the
    // bench shows the model itself is cheap to evaluate, and the printed
    // latencies are the ablation result).
    let cloud = golden_cloud(30_000, 1);
    let tree = Octree::build(&cloud, OctreeConfig::default()).unwrap();
    let table = OctreeTable::from_octree(&tree);
    let mut mem = HostMemory::from_cloud(tree.points());
    let counts = ois::sample(&tree, &table, &mut mem, 1024, 1)
        .unwrap()
        .counts;
    println!("\nablation: Down-sampling Unit latency vs parallelism");
    for modules in [1usize, 2, 4, 8, 16] {
        for lanes in [64usize, 256] {
            let unit = DownsamplingUnit {
                modules,
                scoring_lanes: lanes,
                clock_mhz: 200.0,
            };
            println!(
                "  modules={modules:>2} lanes={lanes:>3}: {}",
                unit.latency(&counts)
            );
        }
    }
    let mut group = c.benchmark_group("ablation_modules_model");
    group.bench_function("latency_model", |b| {
        let unit = DownsamplingUnit::prototype();
        b.iter(|| unit.latency(&counts))
    });
    group.finish();
}

fn ablate_approx_ois(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_approx_ois");
    group.sample_size(10);
    let cloud = golden_cloud(30_000, 1);
    let tree = Octree::build(&cloud, OctreeConfig::new().max_depth(10).leaf_capacity(4)).unwrap();
    let table = OctreeTable::from_octree(&tree);
    group.bench_function("exact", |b| {
        b.iter(|| {
            let mut mem = HostMemory::from_cloud(tree.points());
            ois::sample(&tree, &table, &mut mem, 512, 1).unwrap()
        })
    });
    for &stop in &[2u8, 4, 6] {
        group.bench_with_input(BenchmarkId::new("approx_stop", stop), &stop, |b, &s| {
            b.iter(|| {
                let mut mem = HostMemory::from_cloud(tree.points());
                ois::approx_sample(&tree, &table, &mut mem, 512, 1, s).unwrap()
            })
        });
    }
    group.finish();
}

fn ablate_semi_veg(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_semi_veg");
    group.sample_size(10);
    let cloud = golden_cloud(8_192, 1);
    let tree = Octree::build(&cloud, OctreeConfig::default()).unwrap();
    let centers: Vec<usize> = (0..128).map(|i| i * 64).collect();
    for (label, mode) in [
        ("paper", VegMode::Paper),
        ("semi_approx", VegMode::SemiApprox),
    ] {
        let cfg = VegConfig {
            gather_level: None,
            mode,
        };
        group.bench_function(label, |b| {
            b.iter(|| veg::gather_all(&tree, &centers, 32, &cfg).unwrap())
        });
    }
    group.finish();
}

fn ablate_sorter_width(_c: &mut Criterion) {
    // Pure model: sort-stage cycles vs sorter width, printed as the
    // ablation result (Fig. 16's ST stage is the target).
    println!("\nablation: DSU sort-stage cycles for 256 candidates vs sorter width");
    for width in [4usize, 8, 16, 32, 64] {
        let dsu = DataStructuringUnit {
            sorter_width: width,
            ..DataStructuringUnit::prototype()
        };
        let _ = dsu;
        println!(
            "  width={width:>2}: {} cycles",
            sorter::sort_cycles(256, width)
        );
    }
}

criterion_group!(
    benches,
    ablate_leaf_capacity,
    ablate_sampling_modules,
    ablate_approx_ois,
    ablate_semi_veg,
    ablate_sorter_width
);
criterion_main!(benches);
