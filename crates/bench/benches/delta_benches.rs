//! LSM delta cube benchmark: ingest-while-serving. Reader threads pin
//! cursors on a quiesced state, then keep draining while the writer
//! runs whole ingest→flush→merge→swap cycles underneath them — WAL
//! appends, memtable folds into the base cube via COW commit, WAL
//! compaction by atomic rename, generation swap.
//!
//! The run writes `BENCH_delta.json` at the workspace root in the schema
//! documented on [`rcube_bench::Report`]. Gates, all `Hard`:
//!
//! * every answer a pinned reader produces across the cycles is
//!   byte-identical to the state its cursor opened on
//!   (`inconsistent_answers` == 0);
//! * at every checked point the merged base+overlay view is
//!   byte-identical to a signature cube built from scratch over the
//!   logical relation — tid-exact on insert-only points, score-exact
//!   once deletes shift tids (`byte_identity_checkpoints`, the
//!   checkpoints that matched, == all `ROUNDS + 2` of them);
//! * a reopen replays the WAL with exact counts: `replay_pending` ==
//!   the appends since the last flush, `replay_applied` == the live
//!   delta tuples, `replay_records` == pending + applied;
//! * every flush rewrites at most as many cell signatures as the cube
//!   materializes, each affected cell once per flush
//!   (`cells_rewritten_max_flush` ≤ the materialized cells).
//!
//! Asserted alongside: no torn WAL tail on a clean shutdown, the reopened
//! cube answers like the pre-shutdown state, and the obs instruments saw
//! every append and every flush. Ingest ops/sec during the cycles and
//! mixed read/write ops/sec from the Zipf-skewed `MixedWorkloadGen`
//! stream are recorded, not gated.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, RwLock};
use std::time::Instant;

use ranking_cube::cube::delta::{wal_path_for, DeltaCube, DeltaOptions, FlushReport};
use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::sigcube::{SignatureCube, SignatureCubeConfig};
use ranking_cube::func::Linear;
use ranking_cube::index::rtree::{RTree, RTreeConfig};
use ranking_cube::obs::Metrics;
use ranking_cube::storage::DiskSim;
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::workload::{
    MixedWorkloadGen, MixedWorkloadParams, QuerySpec, WorkloadOp, WorkloadParams,
};
use ranking_cube::table::{Relation, RelationBuilder, Tid};
use rcube_bench::{GateKind, Op, Report};

const PAGE: usize = 4096;
const POOL: usize = 2048;
const READERS: usize = 4;
const CARDINALITY: u32 = 8;
const BASE: usize = 5_700;
const TOTAL: usize = 6_000;
/// Insert cycles during the pinned-reader storm; each ingests `STEP`
/// tuples and flushes. A fourth round deletes base tuples instead.
const CYCLES: usize = 3;
const STEP: usize = 100;
const ROUNDS: usize = CYCLES + 1;
const DELETED: [Tid; 12] = [5, 40, 77, 123, 250, 391, 512, 777, 1024, 2048, 3000, 4321];
const MIXED_OPS: usize = 600;

fn temp_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rcube_delta_bench_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(wal_path_for(&p));
    p
}

fn render(items: &[(Tid, f64)]) -> String {
    items.iter().map(|(t, s)| format!("{t}:{:016x}", s.to_bits())).collect::<Vec<_>>().join(",")
}

fn render_scores(items: &[(Tid, f64)]) -> String {
    items.iter().map(|(_, s)| format!("{:016x}", s.to_bits())).collect::<Vec<_>>().join(",")
}

fn workload() -> Vec<(Vec<(usize, u32)>, usize)> {
    vec![(vec![(0, 1)], 10), (vec![(1, 2)], 8), (vec![(0, 0), (1, 1)], 10), (vec![(2, 3)], 6)]
}

/// Fresh-cursor answers over the shared workload: the quiesced truth.
fn answers(delta: &DeltaCube) -> Vec<String> {
    workload()
        .into_iter()
        .map(|(conds, k)| {
            let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
            let items = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
            render(&items)
        })
        .collect()
}

/// The same workload against a from-scratch in-memory cube over `rel`:
/// `(tid-exact render, score-only render)` per query.
fn rebuilt_answers(rel: &Relation) -> Vec<(String, String)> {
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, rel, &[], RTreeConfig::small(16));
    let cube = SignatureCube::build(rel, &rtree, &disk, SignatureCubeConfig::default());
    workload()
        .into_iter()
        .map(|(conds, k)| {
            let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
            let plan = q.plan();
            let items = cube.source(&rtree, &disk).open(&plan).unwrap().try_drain().unwrap().items;
            (render(&items), render_scores(&items))
        })
        .collect()
}

fn sel_of(rel: &Relation, tid: Tid) -> Vec<u32> {
    (0..rel.schema().num_selection()).map(|d| rel.selection_value(tid, d)).collect()
}

/// What one flush cost: wall time, and the cell signatures rewritten and
/// pages appended by its signature maintenance.
struct FlushCost {
    us: u64,
    cells: u64,
    pages: u64,
}

/// Flushes `delta`, logging the cost from the `maintenance.*` counters
/// the flush's writable cube reports into `metrics`.
fn costed_flush(
    delta: &DeltaCube,
    metrics: &Metrics,
    label: &str,
    log: &mut Vec<FlushCost>,
) -> FlushReport {
    let cells = metrics.counter("maintenance.cells_replaced");
    let pages = metrics.counter("maintenance.pages_appended");
    let (cells_before, pages_before) = (cells.get(), pages.get());
    let report = delta.flush().expect(label);
    log.push(FlushCost {
        us: report.duration.as_micros() as u64,
        cells: cells.get() - cells_before,
        pages: pages.get() - pages_before,
    });
    report
}

fn query_of(spec: &QuerySpec) -> Query {
    Query::select(spec.selection.conds().to_vec())
        .rank_on(spec.ranking_dims.clone(), Linear::new(spec.weights.clone()))
        .top(spec.k)
}

fn main() {
    let mut report = Report::new("delta");
    let full =
        SyntheticSpec { tuples: TOTAL, cardinality: CARDINALITY, ..Default::default() }.generate();
    let base_rel = full.prefix(BASE);
    let path = temp_path("live");
    let materialized_cells = {
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &base_rel, &[], RTreeConfig::small(16));
        let cube = SignatureCube::build(&base_rel, &rtree, &disk, SignatureCubeConfig::default());
        cube.save_to_with(&rtree, &path, PAGE, POOL).expect("save base cube");
        cube.cuboid_dims()
            .iter()
            .map(|dims| {
                (0..CARDINALITY).filter(|&v| cube.cell_signature(dims, &[v]).is_some()).count()
            })
            .sum::<usize>() as u64
    };
    let metrics = Metrics::new();
    let delta = DeltaCube::open(
        &path,
        base_rel.clone(),
        DeltaOptions { pool_pages: POOL, metrics: metrics.clone(), ..Default::default() },
    )
    .expect("open delta");

    let mut appends_total = 0u64;
    let mut identity_checks = 0u64;
    let mut flush_costs: Vec<FlushCost> = Vec::new();
    let expected: RwLock<Vec<String>> = RwLock::new(Vec::new());
    let barrier = Barrier::new(READERS + 1);
    let inconsistent = AtomicU64::new(0);
    let pinned_answers = AtomicU64::new(0);
    let mut ingest_secs = 0.0f64;

    // Tid-exact identity on the insert-only checkpoints: the delta
    // allocates tids densely from the base length, so the merged view
    // must match a cube rebuilt over the longer prefix *including* tids.
    // Returns the merged answers and whether they matched.
    let insert_checkpoint = |delta: &DeltaCube, upto: usize| {
        let got = answers(delta);
        let want: Vec<String> =
            rebuilt_answers(&full.prefix(upto)).into_iter().map(|(f, _)| f).collect();
        let matched = got == want;
        (got, matched)
    };

    std::thread::scope(|s| {
        for _ in 0..READERS {
            let (barrier, expected, inconsistent, pinned_answers) =
                (&barrier, &expected, &inconsistent, &pinned_answers);
            let delta = &delta;
            s.spawn(move || {
                for _round in 0..ROUNDS {
                    barrier.wait(); // A: state quiesced, expected published
                    let exp = expected.read().unwrap().clone();
                    // Pin one cursor per workload query and drain half.
                    // The queries outlive the cursors borrowing them.
                    let queries: Vec<(Query, usize)> = workload()
                        .into_iter()
                        .map(|(conds, k)| (Query::select(conds).rank(Linear::uniform(2)).top(k), k))
                        .collect();
                    let mut pins = Vec::new();
                    for (i, (q, k)) in queries.iter().enumerate() {
                        let mut cursor = delta.source().open(&q.plan()).unwrap();
                        let mut items: Vec<(Tid, f64)> = Vec::new();
                        for _ in 0..k / 2 {
                            if let Some(it) = cursor.try_next().unwrap() {
                                items.push(it);
                            }
                        }
                        pins.push((cursor, items, i));
                    }
                    barrier.wait(); // B: everyone pinned — writer starts mutating
                                    // Finish the drains *while* the ingest+flush cycle
                                    // runs: the cursor must answer its open-time state.
                    for (mut cursor, mut items, i) in pins {
                        while let Some(it) = cursor.try_next().unwrap() {
                            items.push(it);
                        }
                        if render(&items) != exp[i] {
                            inconsistent.fetch_add(1, Ordering::Relaxed);
                        }
                        pinned_answers.fetch_add(items.len() as u64, Ordering::Relaxed);
                    }
                    barrier.wait(); // C: round over
                }
            });
        }

        // Writer: publish the quiesced truth, let readers pin, then run
        // the cycle underneath them.
        for round in 0..ROUNDS {
            let upto = BASE + round * STEP;
            let (exp, matched) = insert_checkpoint(&delta, upto);
            identity_checks += u64::from(matched);
            *expected.write().unwrap() = exp;
            barrier.wait(); // A
            barrier.wait(); // B
            let t = Instant::now();
            if round < CYCLES {
                for tid in upto as Tid..(upto + STEP) as Tid {
                    let got = delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
                    assert_eq!(got, tid, "dense tid allocation");
                    appends_total += 1;
                }
                let report = costed_flush(&delta, &metrics, "cycle flush", &mut flush_costs);
                assert_eq!(report.applied_ops, STEP);
            } else {
                for &tid in &DELETED {
                    delta.delete(tid).unwrap();
                    appends_total += 1;
                }
                let report = costed_flush(&delta, &metrics, "delete-round flush", &mut flush_costs);
                assert_eq!(report.applied_ops, DELETED.len());
            }
            ingest_secs += t.elapsed().as_secs_f64();
            barrier.wait(); // C
        }
    });
    let bad = inconsistent.load(Ordering::Relaxed);
    let ingest_ops = (CYCLES * STEP + DELETED.len()) as f64;
    let ingest_ops_per_sec = ingest_ops / ingest_secs.max(f64::MIN_POSITIVE);

    // Post-delete checkpoint: tids shift in the rebuild, identity moves
    // to the score bit patterns.
    let logical_after_deletes = {
        let mut b = RelationBuilder::new(full.schema().clone());
        for t in 0..TOTAL as Tid {
            if !DELETED.contains(&t) {
                b.push(&sel_of(&full, t), &full.ranking_point(t));
            }
        }
        b.finish()
    };
    let got_scores: Vec<String> = answers(&delta)
        .iter()
        .map(|r| {
            r.split(',')
                .filter(|s| !s.is_empty())
                .map(|i| i.split(':').nth(1).unwrap())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    let want_scores: Vec<String> =
        rebuilt_answers(&logical_after_deletes).into_iter().map(|(_, s)| s).collect();
    identity_checks += u64::from(got_scores == want_scores);

    // Zipf-skewed mixed read/write stream against the quiesced delta:
    // the sustained ingest+serve shape, measured not gated.
    let mut gen = MixedWorkloadGen::new(MixedWorkloadParams {
        query: WorkloadParams { num_conditions: 2, num_ranking: 2, k: 8, skewness: 2.0, seed: 11 },
        value_skew: 1.1,
        insert_fraction: 0.25,
        delete_fraction: 0.05,
    });
    let mut live: Vec<(Tid, Vec<u32>, Vec<f64>)> = Vec::new();
    let mut deleted_delta: Vec<Tid> = Vec::new();
    let t = Instant::now();
    let (mut mixed_done, mut mixed_answers) = (0u64, 0u64);
    for op in gen.stream(&base_rel, MIXED_OPS) {
        match op {
            WorkloadOp::Insert { sel, point } => {
                let tid = delta.insert(&sel, &point).unwrap();
                live.push((tid, sel, point));
                appends_total += 1;
            }
            WorkloadOp::Delete { victim_rank } => {
                if victim_rank < live.len() {
                    let (tid, _, _) = live.remove(live.len() - 1 - victim_rank);
                    delta.delete(tid).unwrap();
                    deleted_delta.push(tid);
                    appends_total += 1;
                }
            }
            WorkloadOp::Query(spec) => {
                let q = query_of(&spec);
                mixed_answers +=
                    delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items.len() as u64;
            }
        }
        mixed_done += 1;
    }
    let mixed_ops_per_sec = mixed_done as f64 / t.elapsed().as_secs_f64();
    costed_flush(&delta, &metrics, "post-mixed flush", &mut flush_costs);

    // Mixed checkpoint: rebuild the logical relation (base minus deleted
    // base tuples, plus the surviving mixed inserts) and re-check the
    // score-bit identity.
    let logical_mixed = {
        let mut b = RelationBuilder::new(full.schema().clone());
        for t in 0..TOTAL as Tid {
            if !DELETED.contains(&t) {
                b.push(&sel_of(&full, t), &full.ranking_point(t));
            }
        }
        for (_, sel, point) in &live {
            b.push(sel, point);
        }
        b.finish()
    };
    let got_scores: Vec<String> = answers(&delta)
        .iter()
        .map(|r| {
            r.split(',')
                .filter(|s| !s.is_empty())
                .map(|i| i.split(':').nth(1).unwrap())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    let want_scores: Vec<String> =
        rebuilt_answers(&logical_mixed).into_iter().map(|(_, s)| s).collect();
    identity_checks += u64::from(got_scores == want_scores);

    // Exact replay accounting: a handful of un-flushed appends, then a
    // "crash" (drop) and reopen. The replay must recover precisely the
    // durable tail — counts and answers.
    const TAIL: u64 = 7;
    for i in 0..TAIL {
        let sel = vec![(i % CARDINALITY as u64) as u32; full.schema().num_selection()];
        delta.insert(&sel, &[0.3 + i as f64 * 0.01, 0.4]).unwrap();
        appends_total += 1;
    }
    let stats_before = delta.stats();
    let before = answers(&delta);
    let flushes_done = delta.flushes_completed();
    drop(delta);
    let reopened =
        DeltaCube::open(&path, base_rel.clone(), DeltaOptions::default()).expect("reopen");
    let replay = reopened.last_replay();
    let (pending, applied) = (replay.pending as f64, replay.applied as f64);
    let live_delta = stats_before.applied_tuples as f64;
    report
        .gate("replay_pending", pending, Op::Eq, TAIL as f64, GateKind::Hard)
        .gate("replay_applied", applied, Op::Eq, live_delta, GateKind::Hard)
        .gate("replay_records", replay.records as f64, Op::Eq, pending + applied, GateKind::Hard);
    assert!(!replay.torn_tail, "clean shutdown must not classify as torn");
    assert_eq!(answers(&reopened), before, "reopen answers the pre-shutdown state");

    // Obs instruments saw everything.
    assert_eq!(metrics.counter("delta.appends").get(), appends_total);
    assert_eq!(metrics.counter("delta.flushes").get(), flushes_done);
    assert_eq!(metrics.histogram("delta.flush_duration_us").count(), flushes_done);

    // --- Hard deterministic gates ---------------------------------------
    let max_cells = flush_costs.iter().map(|f| f.cells).max().unwrap_or(0);
    report
        .gate("inconsistent_answers", bad as f64, Op::Eq, 0.0, GateKind::Hard)
        .gate(
            "byte_identity_checkpoints",
            identity_checks as f64,
            Op::Eq,
            (ROUNDS + 2) as f64,
            GateKind::Hard,
        )
        .gate(
            "cells_rewritten_max_flush",
            max_cells as f64,
            Op::Le,
            materialized_cells as f64,
            GateKind::Hard,
        );

    let per_flush = |f: fn(&FlushCost) -> u64| -> Vec<f64> {
        flush_costs.iter().map(|c| f(c) as f64).collect()
    };
    report
        .metric("pinned_answers", "count", &[pinned_answers.load(Ordering::Relaxed) as f64])
        .metric("appends_total", "count", &[appends_total as f64])
        .metric("flushes", "count", &[flushes_done as f64])
        .metric("cells_rewritten_per_flush", "count", &per_flush(|f| f.cells))
        .metric("pages_appended_per_flush", "pages", &per_flush(|f| f.pages))
        .metric("flush_duration_us", "us", &per_flush(|f| f.us))
        .metric("ingest_ops_per_sec", "1/s", &[ingest_ops_per_sec])
        .metric("mixed_ops_per_sec", "1/s", &[mixed_ops_per_sec])
        .metric("mixed_answers", "count", &[mixed_answers as f64]);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path_for(&path)).ok();
    report.write();
}
