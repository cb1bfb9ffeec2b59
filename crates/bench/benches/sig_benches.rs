//! Signature-cube pruning benchmarks: the lazy zero-copy pruner
//! (`pruner_for`, on-demand node decode + `LazyIntersection`) against the
//! eager assembled baseline (`eager_pruner_for`, whole-partial decode +
//! materialized intersection) on multi-dimensional predicates with no
//! exact cuboid — the `C_sig` workload of Section 4.3.3.
//!
//! The run writes `BENCH_sigcube.json` at the workspace root in the
//! schema documented on [`rcube_bench::Report`]: partial loads, bytes of
//! signature codings decoded, and wall time per mode, plus warm- and
//! cold-pool numbers for a reopened file-backed cube. Lazy and eager
//! answers must be bit-identical (asserted). Gates:
//!
//! * `<sel>.sig_loads_lazy` < the eager assembly's loads, in memory and
//!   (`<sel>.file_sig_loads_lazy`) reopened from file (`Hard`).
//! * `bytes_decoded_reduction_lazy_vs_eager` ≥ 2, the worst case over the
//!   workload (`Hard`).
//! * `file_warm_penalty_vs_inmem_lazy` ≤ 3, a ratio of medians
//!   (`Clock { min_threads: 1 }`).

use criterion::{criterion_group, criterion_main, Criterion};
use rcube_bench::{GateKind, Op, Report};
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_core::sigquery::{topk_signature, topk_signature_assembled};
use rcube_core::TopKQuery;
use rcube_func::Linear;
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;

struct Setup {
    disk: DiskSim,
    rtree: RTree,
    cube: SignatureCube,
    file_disk: DiskSim,
    file_rtree: RTree,
    file_cube: SignatureCube,
    path: std::path::PathBuf,
}

fn setup() -> Setup {
    let rel =
        SyntheticSpec { tuples: 20_000, cardinality: 5, ranking_dims: 3, ..Default::default() }
            .generate();
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    // A small alpha forces real decomposition (many partials per cell), so
    // partial-level laziness is measurable, not vacuous.
    let mut cube = SignatureCube::build(
        &rel,
        &rtree,
        &disk,
        SignatureCubeConfig { alpha: 0.02, ..Default::default() },
    );
    let mut path = std::env::temp_dir();
    path.push(format!("rcube_sig_bench_{}", std::process::id()));
    cube.save_to(&rtree, &path).expect("save signature cube");
    let (mut file_cube, file_rtree) =
        SignatureCube::open_from(&path).expect("reopen signature cube");
    // This bench measures PR 3's *per-query* lazy read path, so the
    // cross-query shared node cache is disabled on both cubes — its
    // repeat-workload effect is BENCH_concurrency.json's subject, and
    // leaving it on would deflate the lazy counters with warm-cache hits.
    cube.set_node_cache_budget(0);
    file_cube.set_node_cache_budget(0);
    Setup { disk, rtree, cube, file_disk: DiskSim::with_defaults(), file_rtree, file_cube, path }
}

/// Multi-dimensional predicates; only atomic cuboids are materialized, so
/// every one of these exercises the intersection path.
fn workload() -> Vec<(&'static str, Vec<(usize, u32)>)> {
    vec![("sel2", vec![(0, 1), (1, 2)]), ("sel3", vec![(0, 1), (1, 2), (2, 3)])]
}

fn bench_sigcube(c: &mut Criterion) {
    let s = setup();

    // --- Deterministic counters (run once, gated hard) ------------------
    let mut report = Report::new("sigcube");
    let mut worst_load_ratio = f64::INFINITY;
    let mut worst_byte_ratio = f64::INFINITY;
    for (label, conds) in workload() {
        let q = TopKQuery::new(conds.clone(), Linear::uniform(3), 10);
        let lazy = topk_signature(&s.rtree, &s.cube, &q, &s.disk);
        let eager = topk_signature_assembled(&s.rtree, &s.cube, &q, &s.disk);
        assert_eq!(lazy.items, eager.items, "{label}: lazy and eager answers diverged");
        let load_ratio = eager.stats.sig_loads as f64 / lazy.stats.sig_loads.max(1) as f64;
        let byte_ratio =
            eager.stats.sig_bytes_decoded as f64 / lazy.stats.sig_bytes_decoded.max(1) as f64;
        worst_load_ratio = worst_load_ratio.min(load_ratio);
        worst_byte_ratio = worst_byte_ratio.min(byte_ratio);
        report.gate(
            &format!("{label}.sig_loads_lazy"),
            lazy.stats.sig_loads as f64,
            Op::Lt,
            eager.stats.sig_loads as f64,
            GateKind::Hard,
        );
        for (mode, stats) in [("lazy", &lazy.stats), ("eager", &eager.stats)] {
            let bytes = stats.sig_bytes_decoded as f64;
            report.metric(&format!("{label}.bytes_decoded_{mode}"), "B", &[bytes]);
        }
        // The file-backed cube must show the same lazy-vs-eager profile.
        let flazy = topk_signature(&s.file_rtree, &s.file_cube, &q, &s.file_disk);
        let feager = topk_signature_assembled(&s.file_rtree, &s.file_cube, &q, &s.file_disk);
        assert_eq!(flazy.items, feager.items, "{label}: file-backed answers diverged");
        assert_eq!(flazy.items, lazy.items, "{label}: file-backed != in-memory answers");
        report.gate(
            &format!("{label}.file_sig_loads_lazy"),
            flazy.stats.sig_loads as f64,
            Op::Lt,
            feager.stats.sig_loads as f64,
            GateKind::Hard,
        );
    }
    report.gate(
        "bytes_decoded_reduction_lazy_vs_eager",
        worst_byte_ratio,
        Op::Ge,
        2.0,
        GateKind::Hard,
    );
    report.metric("sig_load_reduction_lazy_vs_eager", "ratio", &[worst_load_ratio]);

    // --- Wall time -------------------------------------------------------
    let mut g = c.benchmark_group("sigcube_query");
    for (label, conds) in workload() {
        let q = TopKQuery::new(conds.clone(), Linear::uniform(3), 10);
        g.bench_function(format!("inmem_eager/{label}"), |b| {
            b.iter(|| topk_signature_assembled(&s.rtree, &s.cube, &q, &s.disk))
        });
        let q = TopKQuery::new(conds.clone(), Linear::uniform(3), 10);
        g.bench_function(format!("inmem_lazy/{label}"), |b| {
            b.iter(|| topk_signature(&s.rtree, &s.cube, &q, &s.disk))
        });

        let q = TopKQuery::new(conds.clone(), Linear::uniform(3), 10);
        // Prime the pool once, then measure warm file-backed serving.
        topk_signature(&s.file_rtree, &s.file_cube, &q, &s.file_disk);
        g.bench_function(format!("file_warm_lazy/{label}"), |b| {
            b.iter(|| topk_signature(&s.file_rtree, &s.file_cube, &q, &s.file_disk))
        });

        let q = TopKQuery::new(conds, Linear::uniform(3), 10);
        g.bench_function(format!("file_cold_lazy/{label}"), |b| {
            b.iter(|| {
                s.file_cube.store().clear_cache();
                s.file_disk.clear_buffer();
                topk_signature(&s.file_rtree, &s.file_cube, &q, &s.file_disk)
            })
        });
    }
    g.finish();

    std::fs::remove_file(&s.path).ok();

    let ms = c.measurements();
    let median = |mode: &str| {
        let id = format!("sigcube_query/{mode}/sel2");
        ms.iter().find(|m| m.id == id).map_or(f64::NAN, |m| m.median_ns)
    };
    let (lazy, warm) = (median("inmem_lazy"), median("file_warm_lazy"));
    let clock = GateKind::Clock { min_threads: 1 };
    report
        .criterion(ms)
        .gate("file_warm_penalty_vs_inmem_lazy", warm / lazy, Op::Le, 3.0, clock)
        .metric("inmem_lazy_speedup_vs_eager", "ratio", &[median("inmem_eager") / lazy])
        .write();
}

criterion_group!(benches, bench_sigcube);
criterion_main!(benches);
