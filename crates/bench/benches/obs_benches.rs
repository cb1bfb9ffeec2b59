//! Observability overhead + correctness gates.
//!
//! Two engines serve the *same* seeded relation and the *same* mixed
//! workload: one fully instrumented (per-engine metric registry, the
//! default), one with [`Metrics::disabled`] so every instrument is a
//! no-op handle. The run writes `BENCH_observability.json` at the
//! workspace root in the schema documented on [`rcube_bench::Report`].
//! Gates:
//!
//! * **Identical answers** (`Hard`): the instrumented and uninstrumented
//!   engines return byte-identical answers — same tids, same scores down
//!   to the f64 bit pattern (`answers_differing` == 0). Instrumentation
//!   must never perturb the result.
//! * **Counter parity** (`Hard`): the registry's per-route query counters
//!   and histogram sums reconcile exactly with the `QueryStats` the
//!   cursors themselves reported: `queries_counted` (Σ
//!   `query.<r>.count`) and `queries_timed` (Σ `query.<r>.latency_us`
//!   counts) equal the number of queries; `blocks_read` / `tuples_scored`
//!   (Σ `query.<r>.blocks_read` / `.tuples_scored` histogram sums) equal
//!   the accumulated per-query stats.
//! * **Overhead** (`Clock { min_threads: 1 }`): the instrumented engine's
//!   workload time stays within 5% of the uninstrumented one
//!   (`overhead_pct` ≤ 5, from each engine's fastest of the timed rounds).

use std::time::Instant;

use ranking_cube::obs::Metrics;
use ranking_cube::prelude::*;
use rcube_bench::{GateKind, Op, Report};
use rcube_core::gridcube::GridCubeConfig;
use rcube_core::sigcube::SignatureCubeConfig;
use rcube_index::rtree::RTreeConfig;
use rcube_table::gen::DataDist;

const TUPLES: usize = 4_000;
const SEED: u64 = 0xB0B5;
/// Timed repetitions of the workload per engine; the minimum is scored.
const ROUNDS: usize = 5;

/// Every route the engine keeps per-route instruments for.
const ROUTES: [Route; 4] = [Route::Grid, Route::Fragments, Route::Signature, Route::Scan];

fn build_engine(metrics: Metrics) -> Engine {
    // Same seed on both sides: the relations are identical.
    let rel = rcube_bench::synthetic(TUPLES, 3, 8, 2, DataDist::Uniform, SEED);
    Engine::with_disk_and_metrics(rel, DiskSim::with_defaults(), metrics)
        .with_grid_cube(GridCubeConfig { block_size: 64, ..Default::default() })
        .with_signature_cube(RTreeConfig::small(16), SignatureCubeConfig::default())
}

/// The mixed workload: grid-covered point selections, roll-ups, and a
/// narrow-rank query that exercises the signature/scan side.
fn workload() -> Vec<Query> {
    let mut queries = Vec::new();
    for v0 in 0..8u32 {
        for v1 in 0..4u32 {
            queries.push(Query::select([(0, v0), (1, v1)]).rank(Linear::uniform(2)).top(10));
        }
        queries.push(Query::select([(0, v0)]).rank(Linear::new(vec![0.7, 0.3])).top(20));
        queries.push(Query::select([(0, v0)]).rank_on(vec![1], Linear::uniform(1)).top(5));
    }
    queries
}

fn run_workload(eng: &Engine, queries: &[Query]) -> (Vec<(u32, u64)>, QueryStats) {
    let mut answers = Vec::new();
    let mut total = QueryStats::default();
    for q in queries {
        let res = eng.query(q);
        for &(tid, score) in &res.items {
            answers.push((tid, score.to_bits()));
        }
        total.blocks_read += res.stats.blocks_read;
        total.tuples_scored += res.stats.tuples_scored;
    }
    (answers, total)
}

fn main() {
    let mut report = Report::new("observability");
    let queries = workload();
    let n_queries = queries.len() as f64;

    let instrumented = build_engine(Metrics::new());
    let bare = build_engine(Metrics::disabled());

    // --- Gate 1: byte-identical answers ---------------------------------
    let (answers_i, stats_i) = run_workload(&instrumented, &queries);
    let (answers_b, _) = run_workload(&bare, &queries);
    let differing = answers_i.iter().zip(&answers_b).filter(|(i, b)| i != b).count()
        + answers_i.len().abs_diff(answers_b.len());
    report.gate("answers_differing", differing as f64, Op::Eq, 0.0, GateKind::Hard);

    // --- Gate 2: counter parity with QueryStats -------------------------
    // The warm-up pass above ran every query once on each engine.
    let snap = instrumented.metrics().snapshot();
    let counter = |suffix: &str| -> u64 {
        ROUTES.iter().filter_map(|r| snap.counter(&format!("query.{}.{suffix}", r.name()))).sum()
    };
    // (Σ count, Σ sum) of the per-route histograms `query.<r>.<suffix>`.
    let histogram = |suffix: &str| -> (u64, u64) {
        ROUTES
            .iter()
            .filter_map(|r| snap.histogram(&format!("query.{}.{suffix}", r.name())))
            .fold((0, 0), |(count, sum), h| (count + h.count, sum + h.sum))
    };
    let timed = histogram("latency_us").0;
    let blocks = histogram("blocks_read").1;
    let tuples = histogram("tuples_scored").1;
    report
        .gate("queries_counted", counter("count") as f64, Op::Eq, n_queries, GateKind::Hard)
        .gate("queries_timed", timed as f64, Op::Eq, n_queries, GateKind::Hard)
        .gate("blocks_read", blocks as f64, Op::Eq, stats_i.blocks_read as f64, GateKind::Hard)
        .gate("tuples_scored", tuples as f64, Op::Eq, stats_i.tuples_scored as f64, GateKind::Hard);

    // --- Gate 3: wall-clock overhead ------------------------------------
    let time_engine = |eng: &Engine| -> Vec<f64> {
        (0..ROUNDS)
            .map(|_| {
                let start = Instant::now();
                let (answers, _) = run_workload(eng, &queries);
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(answers);
                elapsed
            })
            .collect()
    };
    let fastest = |ms: &[f64]| ms.iter().copied().fold(f64::INFINITY, f64::min);
    let ms_bare = time_engine(&bare);
    let ms_instr = time_engine(&instrumented);
    let (best_bare, best_instr) = (fastest(&ms_bare), fastest(&ms_instr));
    let overhead_pct = (best_instr - best_bare) / best_bare * 100.0;
    report
        .gate("overhead_pct", overhead_pct, Op::Le, 5.0, GateKind::Clock { min_threads: 1 })
        .metric("wall_ms.instrumented", "ms", &ms_instr)
        .metric("wall_ms.bare", "ms", &ms_bare)
        .write();
}
