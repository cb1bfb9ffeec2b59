//! Storage-backend benchmarks: the same grid-cube top-k workload served
//! from (a) the in-memory simulator, (b) a reopened cube file with a warm
//! buffer pool, and (c) the same file cache-cold.
//!
//! The run writes `BENCH_storage.json` at the workspace root in the
//! schema documented on [`rcube_bench::Report`]. Headline numbers are the
//! cold-open and warm-pool penalties relative to in-memory (ratios of
//! medians); the warm ratio is the one to keep near 1× — a warm pool
//! serves the same `Arc<[u8]>` frames the in-memory store would. One
//! gate:
//!
//! * `warm_pool_penalty_vs_inmem` ≤ 3 (`Clock { min_threads: 1 }`).

use criterion::{criterion_group, criterion_main, Criterion};
use rcube_bench::{GateKind, Op};
use rcube_core::gridcube::{GridCubeConfig, GridRankingCube};
use rcube_core::TopKQuery;
use rcube_func::Linear;
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;

struct Setup {
    mem_cube: GridRankingCube,
    file_cube: GridRankingCube,
    path: std::path::PathBuf,
}

fn setup() -> Setup {
    let rel = SyntheticSpec { tuples: 20_000, cardinality: 5, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let mem_cube = GridRankingCube::build(
        &rel,
        &disk,
        GridCubeConfig { block_size: 300, ..Default::default() },
    );
    let mut path = std::env::temp_dir();
    path.push(format!("rcube_storage_bench_{}", std::process::id()));
    mem_cube.save_to(&path).expect("save cube file");
    let file_cube = GridRankingCube::open_from(&path).expect("reopen cube file");
    Setup { mem_cube, file_cube, path }
}

fn workload() -> Vec<(&'static str, Vec<(usize, u32)>)> {
    vec![("sel1", vec![(0, 1)]), ("sel2", vec![(0, 1), (2, 3)])]
}

fn bench_backends(c: &mut Criterion) {
    let s = setup();
    let mut g = c.benchmark_group("storage_query");
    for (label, conds) in workload() {
        let q = TopKQuery::new(conds.clone(), Linear::uniform(2), 10);
        let disk = DiskSim::with_defaults();
        g.bench_function(format!("inmem/{label}"), |b| b.iter(|| s.mem_cube.query(&q, &disk)));

        let q = TopKQuery::new(conds.clone(), Linear::uniform(2), 10);
        let disk = DiskSim::with_defaults();
        // Prime the pool once, then measure warm-pool serving.
        s.file_cube.query(&q, &disk);
        g.bench_function(format!("file_warm/{label}"), |b| b.iter(|| s.file_cube.query(&q, &disk)));

        let q = TopKQuery::new(conds, Linear::uniform(2), 10);
        let disk = DiskSim::with_defaults();
        // Cache-cold: every iteration drops the buffer pool (and the id
        // buffer), so each query re-reads and re-verifies its pages. The
        // OS page cache stays warm — this measures our stack, not the
        // platter.
        g.bench_function(format!("file_cold/{label}"), |b| {
            b.iter(|| {
                s.file_cube.store().clear_cache();
                disk.clear_buffer();
                s.file_cube.query(&q, &disk)
            })
        });
    }
    g.finish();

    std::fs::remove_file(&s.path).ok();
    emit_json(c);
}

fn emit_json(c: &mut Criterion) {
    let ms = c.measurements();
    let median = |mode: &str| {
        let id = format!("storage_query/{mode}/sel1");
        ms.iter().find(|m| m.id == id).map_or(f64::NAN, |m| m.median_ns)
    };
    let (inmem, warm, cold) = (median("inmem"), median("file_warm"), median("file_cold"));
    let clock = GateKind::Clock { min_threads: 1 };
    rcube_bench::Report::new("storage")
        .criterion(ms)
        .gate("warm_pool_penalty_vs_inmem", warm / inmem, Op::Le, 3.0, clock)
        .metric("cold_open_penalty_vs_inmem", "ratio", &[cold / inmem])
        .metric("buffer_pool_speedup_cold_to_warm", "ratio", &[cold / warm])
        .write();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
