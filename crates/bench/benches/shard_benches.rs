//! Partitioned cube-set benchmarks: scatter-gather top-k over 1/2/4
//! tid-range shards, measured against one unsharded cube file over the
//! same relation, driven by a Zipf-skewed query mix
//! (`rcube_bench::zipf_query_batch`).
//!
//! The run writes `BENCH_shard.json` at the workspace root in the schema
//! documented on [`rcube_bench::Report`]. Gates:
//!
//! * **Deterministic counters** (`Hard`):
//!   - every sharded answer is byte-identical to the unsharded cube's,
//!     at every shard count (`queries_differing_from_unsharded` == 0);
//!   - the bound holds per shard: the merge never pulls a shard more
//!     than `answers_consumed_from_it + 1` times
//!     (`max_per_shard_pull_slack` ≤ 1);
//!   - per-shard I/O is reproducible: re-running a query yields
//!     identical per-shard pulls/answers/blocks, since pulls are a pure
//!     function of the consumed-answer sequence
//!     (`repeat_run_shards_differing` == 0).
//! * **Throughput** (`Clock { min_threads: 4 }`): the 4-shard set served
//!   to 4 client threads at once reaches ≥ 2.5× one client
//!   (`scaling_4c_vs_1c`). A sharded query runs on its calling thread,
//!   so concurrency comes from clients sharing one set. Single-client
//!   queries/sec at 1, 2 and 4 shards are recorded as `qps.s<n>`.

use std::time::{Duration, Instant};

use rcube_bench::{GateKind, Op, Report};
use rcube_core::query::{Query, RankedSource};
use rcube_core::shard::{ShardEngineConfig, ShardedCube, ShardedCubeConfig};
use rcube_core::{GridCubeConfig, GridRankingCube};
use rcube_func::Linear;
use rcube_storage::DiskSim;
use rcube_table::workload::QuerySpec;

const TUPLES: usize = 20_000;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const QUERIES: usize = 12;

fn query_of(spec: &QuerySpec) -> Query {
    Query::select(spec.selection.conds().to_vec())
        .rank_on(spec.ranking_dims.clone(), Linear::new(spec.weights.clone()))
        .top(spec.k)
}

struct Setup {
    unsharded: GridRankingCube,
    disk: DiskSim,
    sets: Vec<(usize, ShardedCube)>,
    dir: std::path::PathBuf,
    queries: Vec<QuerySpec>,
}

fn setup() -> Setup {
    let rel = rcube_bench::synthetic(TUPLES, 4, 5, 2, rcube_table::gen::DataDist::Uniform, 7);
    // Zipf-skewed mix: hot selection values recur, like real workloads.
    let queries = rcube_bench::zipf_query_batch(&rel, 2, 2, 10, 3.0, 1.1, QUERIES, 42);

    let dir = std::env::temp_dir().join(format!("rcube_shard_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");

    let gcfg = GridCubeConfig { block_size: 300, ..Default::default() };
    let disk = DiskSim::with_defaults();
    let unsharded_path = dir.join("base.cube");
    GridRankingCube::build(&rel, &disk, gcfg.clone())
        .save_to(&unsharded_path)
        .expect("save unsharded cube");
    let unsharded = GridRankingCube::open_from(&unsharded_path).expect("reopen unsharded cube");

    let sets = SHARD_COUNTS
        .iter()
        .map(|&n| {
            let cfg = ShardedCubeConfig {
                shards: n,
                engine: ShardEngineConfig::Grid(gcfg.clone()),
                ..Default::default()
            };
            let manifest = dir.join(format!("set{n}.manifest"));
            (n, ShardedCube::build_to(&rel, &manifest, &cfg).expect("build sharded set"))
        })
        .collect();

    Setup { unsharded, disk: DiskSim::with_defaults(), sets, dir, queries }
}

fn unsharded_answers(s: &Setup, q: &Query) -> Vec<(rcube_table::Tid, f64)> {
    s.unsharded.source(&s.disk).query(&q.plan()).expect("unsharded query").items
}

/// Aggregate queries/sec with `clients` threads each pushing the Zipf
/// mix through the shared set's cursor merge.
fn measure_qps(cube: &ShardedCube, queries: &[Query], window: Duration, clients: usize) -> f64 {
    let start = Instant::now();
    let n: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut n = 0u64;
                    while start.elapsed() < window {
                        for q in queries {
                            std::hint::black_box(cube.source().query(&q.plan()).expect("query"));
                            n += 1;
                        }
                    }
                    n
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).sum()
    });
    n as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let s = setup();
    let queries: Vec<Query> = s.queries.iter().map(query_of).collect();
    let mut report = Report::new("shard");

    // --- Deterministic gates (hard, no wall clock involved) -------------
    let mut differing = 0u64;
    let mut max_pull_slack = 0i64;
    let mut merged_blocks_4s = 0u64;
    for (n, cube) in &s.sets {
        for (qi, q) in queries.iter().enumerate() {
            let merged = cube.source().query(&q.plan()).expect("cursor merge");
            differing += u64::from(merged.items != unsharded_answers(&s, q));
            assert_eq!(merged.stats.shards_opened, *n as u64, "every shard opens");

            // The bound: a shard is re-pulled only after its head was
            // consumed, so pulls never exceed answers + 1.
            let fanout = cube.last_fanout().expect("fan-out recorded");
            for f in &fanout.shards {
                max_pull_slack = max_pull_slack.max(f.pulls as i64 - f.answers as i64);
            }
            let contributed: u64 = fanout.shards.iter().map(|f| f.answers).sum();
            assert_eq!(contributed as usize, merged.items.len(), "answers all attributed");
            if *n == 4 && qi == 0 {
                merged_blocks_4s = fanout.blocks_read();
            }
        }
    }

    // Reproducibility: the same query re-run on the (now warm) 4-shard
    // set reports identical per-shard counters — pulls are demand-driven,
    // never a race.
    let four = &s.sets.iter().find(|(n, _)| *n == 4).expect("4-shard set").1;
    let q0 = &queries[0];
    let runs: Vec<Vec<(u64, u64, u64)>> = (0..2)
        .map(|_| {
            let _ = four.source().query(&q0.plan()).expect("repeat run");
            four.last_fanout()
                .expect("fan-out")
                .shards
                .iter()
                .map(|f| (f.pulls, f.answers, f.blocks_read))
                .collect()
        })
        .collect();
    let repeat_differing = runs[0].iter().zip(&runs[1]).filter(|(a, b)| a != b).count();
    report
        .gate("queries_differing_from_unsharded", differing as f64, Op::Eq, 0.0, GateKind::Hard)
        .gate("max_per_shard_pull_slack", max_pull_slack as f64, Op::Le, 1.0, GateKind::Hard)
        .gate("repeat_run_shards_differing", repeat_differing as f64, Op::Eq, 0.0, GateKind::Hard)
        .metric("sample_query_blocks_4s", "count", &[merged_blocks_4s as f64]);

    // --- Throughput (wall clock) -----------------------------------------
    let window = Duration::from_millis(400);
    let mut qps_1c = f64::NAN;
    for (n, cube) in &s.sets {
        // One warm pass so every shard count starts with warm pools.
        for q in &queries {
            let _ = cube.source().query(&q.plan()).expect("warm pass");
        }
        let v = measure_qps(cube, &queries, window, 1);
        report.metric(&format!("qps.s{n}"), "1/s", &[v]);
        if *n == 4 {
            qps_1c = v;
        }
    }
    let qps_4c = measure_qps(four, &queries, window, 4);
    report.metric("qps_4s_4_clients", "1/s", &[qps_4c]).gate(
        "scaling_4c_vs_1c",
        qps_4c / qps_1c,
        Op::Ge,
        2.5,
        GateKind::Clock { min_threads: 4 },
    );
    std::fs::remove_dir_all(&s.dir).ok();
    report.write();
}
