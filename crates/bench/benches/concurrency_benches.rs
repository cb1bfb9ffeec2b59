//! Concurrent serving benchmarks: 1/2/4/8 query threads hammering one
//! shared file-backed cube pair (grid + signature) through the
//! positional-read file backend, the sharded buffer pool and the shared
//! cross-query node cache.
//!
//! The run writes `BENCH_concurrency.json` at the workspace root in the
//! schema documented on [`rcube_bench::Report`]. Gates:
//!
//! * **Deterministic decode counters** (`Hard`): a repeated signature
//!   workload with the shared node cache must decode strictly fewer
//!   nodes than the same workload limited to the per-query memo
//!   (`repeat.nodes_decoded_shared_cache` < the memo-only count), with
//!   `repeat.shared_node_hits` > 0; answers are asserted byte-identical.
//! * **Throughput scaling** (`Clock { min_threads: 4 }`): aggregate
//!   queries/sec at 4 threads ≥ 2.5× a single thread
//!   (`scaling_4t_vs_1t`). Queries/sec at 1, 2, 4 and 8 threads are
//!   recorded as `qps.t<n>`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rcube_bench::{GateKind, Op, Report};
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_core::sigquery::topk_signature;
use rcube_core::{GridCubeConfig, GridRankingCube, TopKQuery};
use rcube_func::Linear;
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;

struct Setup {
    grid_file: GridRankingCube,
    sig_file: SignatureCube,
    sig_rtree: RTree,
    paths: Vec<std::path::PathBuf>,
}

fn setup() -> Setup {
    let rel =
        SyntheticSpec { tuples: 20_000, cardinality: 5, ranking_dims: 3, ..Default::default() }
            .generate();
    let disk = DiskSim::with_defaults();

    let mut grid_path = std::env::temp_dir();
    grid_path.push(format!("rcube_conc_bench_grid_{}", std::process::id()));
    let grid_mem = GridRankingCube::build(
        &rel,
        &disk,
        GridCubeConfig { block_size: 300, ..Default::default() },
    );
    grid_mem.save_to(&grid_path).expect("save grid cube");
    let grid_file = GridRankingCube::open_from(&grid_path).expect("reopen grid cube");

    let mut sig_path = std::env::temp_dir();
    sig_path.push(format!("rcube_conc_bench_sig_{}", std::process::id()));
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    let sig_mem = SignatureCube::build(
        &rel,
        &rtree,
        &disk,
        SignatureCubeConfig { alpha: 0.02, ..Default::default() },
    );
    sig_mem.save_to(&rtree, &sig_path).expect("save signature cube");
    let (sig_file, sig_rtree) = SignatureCube::open_from(&sig_path).expect("reopen sig cube");

    Setup { grid_file, sig_file, sig_rtree, paths: vec![grid_path, sig_path] }
}

fn grid_workload() -> Vec<(Vec<(usize, u32)>, usize)> {
    vec![(vec![(0, 1)], 10), (vec![(0, 2), (1, 3)], 10), (vec![(1, 1), (2, 2)], 5)]
}

fn sig_workload() -> Vec<(Vec<(usize, u32)>, usize)> {
    vec![(vec![(0, 1), (1, 2)], 10), (vec![(0, 0), (1, 1), (2, 2)], 5), (vec![(2, 3)], 10)]
}

/// One full pass of the mixed workload; returns queries executed.
fn run_workload_once(s: &Setup, disk: &DiskSim) -> u64 {
    let mut n = 0u64;
    for (conds, k) in grid_workload() {
        let q = TopKQuery::new(conds, Linear::uniform(2), k);
        std::hint::black_box(s.grid_file.query(&q, disk));
        n += 1;
    }
    for (conds, k) in sig_workload() {
        let q = TopKQuery::new(conds, Linear::uniform(3), k);
        std::hint::black_box(topk_signature(&s.sig_rtree, &s.sig_file, &q, disk));
        n += 1;
    }
    n
}

/// Hammers the shared cubes from `threads` workers for `window`, each with
/// its own metering device, and returns aggregate queries/sec.
fn measure_qps(s: &Setup, threads: usize, window: Duration) -> f64 {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (stop, total) = (&stop, &total);
            scope.spawn(move || {
                let disk = DiskSim::with_defaults();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    n += run_workload_once(s, &disk);
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed().as_secs_f64();
    total.load(Ordering::Relaxed) as f64 / elapsed
}

/// The deterministic counter gate: the repeated signature workload summed
/// over `rounds`, with the shared cache vs per-query memo only.
fn repeat_decode_counters(path: &std::path::Path, rounds: usize) -> (u64, u64, u64) {
    let (cached, rtree_a) = SignatureCube::open_from(path).expect("open cache-on");
    let (mut memo_only, rtree_b) = SignatureCube::open_from(path).expect("open cache-off");
    memo_only.set_node_cache_budget(0);
    let disk_a = DiskSim::with_defaults();
    let disk_b = DiskSim::with_defaults();
    let (mut with_cache, mut without_cache, mut shared_hits) = (0u64, 0u64, 0u64);
    for _ in 0..rounds {
        for (conds, k) in sig_workload() {
            let q = TopKQuery::new(conds.clone(), Linear::uniform(3), k);
            let a = topk_signature(&rtree_a, &cached, &q, &disk_a);
            let q = TopKQuery::new(conds, Linear::uniform(3), k);
            let b = topk_signature(&rtree_b, &memo_only, &q, &disk_b);
            assert_eq!(a.items, b.items, "shared cache changed an answer");
            with_cache += a.stats.sig_nodes_decoded;
            without_cache += b.stats.sig_nodes_decoded;
            shared_hits += a.stats.shared_node_hits;
            assert_eq!(b.stats.shared_node_hits, 0, "disabled cache must never hit");
        }
    }
    (with_cache, without_cache, shared_hits)
}

fn main() {
    let s = setup();
    let mut report = Report::new("concurrency");

    // --- Deterministic counters (hard gate, no wall clock involved) -----
    let (with_cache, without_cache, shared_hits) = repeat_decode_counters(&s.paths[1], 5);
    report
        .gate(
            "repeat.nodes_decoded_shared_cache",
            with_cache as f64,
            Op::Lt,
            without_cache as f64,
            GateKind::Hard,
        )
        .gate("repeat.shared_node_hits", shared_hits as f64, Op::Gt, 0.0, GateKind::Hard);

    // --- Thread-scaling throughput --------------------------------------
    // Warm the pools and the node cache once so every thread count starts
    // from the same serving state.
    let disk = DiskSim::with_defaults();
    run_workload_once(&s, &disk);
    let window = Duration::from_millis(400);
    let mut qps = Vec::new();
    for t in [1usize, 2, 4, 8] {
        let v = measure_qps(&s, t, window);
        report.metric(&format!("qps.t{t}"), "1/s", &[v]);
        qps.push(v);
    }
    let scaling_4t = qps[2] / qps[0];
    report.gate("scaling_4t_vs_1t", scaling_4t, Op::Ge, 2.5, GateKind::Clock { min_threads: 4 });

    // --- Cache effectiveness (the pool_stats / node-cache snapshots) ----
    let pool = s.grid_file.pool_stats().expect("file-backed grid cube has a pool");
    assert!(pool.hits() > 0, "hammering must hit the sharded pool");
    for (i, sh) in pool.shards.iter().enumerate() {
        println!(
            "  grid pool shard {i}: {}/{} pages, {} frames, {} hits / {} misses",
            sh.used_pages, sh.capacity_pages, sh.frames, sh.hits, sh.misses
        );
    }
    let sig_pool = s.sig_file.pool_stats().expect("file-backed sig cube has a pool");
    let nc = s.sig_file.node_cache().stats();
    report
        .metric("grid_pool.shards", "count", &[pool.shards.len() as f64])
        .metric("grid_pool.capacity_pages", "pages", &[pool.capacity_pages() as f64])
        .metric("grid_pool.used_pages", "pages", &[pool.used_pages() as f64])
        .metric("grid_pool.hit_rate", "ratio", &[pool.hit_rate()])
        .metric("grid_pool.evictions", "count", &[pool.evictions() as f64])
        .metric("sig_pool.hit_rate", "ratio", &[sig_pool.hit_rate()])
        .metric("sig_node_cache.entries", "count", &[nc.entries as f64])
        .metric("sig_node_cache.bytes", "B", &[nc.bytes as f64])
        .metric("sig_node_cache.hits", "count", &[nc.hits as f64])
        .metric("sig_node_cache.misses", "count", &[nc.misses as f64])
        .metric("sig_node_cache.evictions", "count", &[nc.evictions as f64]);

    for p in &s.paths {
        std::fs::remove_file(p).ok();
    }
    report.write();
}
