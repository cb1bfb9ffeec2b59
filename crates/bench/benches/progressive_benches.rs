//! Progressive-query benchmarks: the paper's *semi-online* property,
//! measured. Three claims, each gated on deterministic I/O counters
//! (`Hard` gates; the wall-clock figures are recorded, not gated):
//!
//! 1. **Time-to-first-answer ≪ full-k time.** A bound-driven cursor
//!    certifies its first answer after reading strictly fewer blocks than
//!    draining the full top-k (the table-scan baseline is the recorded
//!    contrast: its first answer costs the whole scan).
//! 2. **`extend_k(Δ)` ≪ fresh top-(k+Δ).** Pagination resumes the paused
//!    frontier: the extension charges strictly fewer block reads than
//!    re-running the query at k+Δ, with identical items (the rank-mapping
//!    baseline is the recorded contrast: its bound oracle depends on k,
//!    so pagination re-plans and re-reads).
//! 3. Both hold identically on a cube reopened from a file.
//!
//! The run writes `BENCH_progressive.json` at the workspace root in the
//! schema documented on [`rcube_bench::Report`]. For each source `<src>`
//! (`grid_mem`, `grid_file`, `signature_mem`, `table_scan`,
//! `rank_mapping`) it records `<src>.blocks_first_answer`,
//! `.blocks_top_k`, `.blocks_extension` and `.blocks_fresh_k_plus_delta`
//! (k = 50, Δ = 50). Gates, all `Hard`:
//!
//! * grid (memory and file) and signature: `<src>.blocks_first_answer` <
//!   `.blocks_top_k` and `<src>.blocks_extension` <
//!   `.blocks_fresh_k_plus_delta`;
//! * the contrasts: `table_scan.blocks_first_answer` ==
//!   `.blocks_top_k`, and `rank_mapping.blocks_extension` ≥
//!   `.blocks_fresh_k_plus_delta`.
//!
//! Paginated answers must equal a fresh top-(k+Δ) (asserted).

use criterion::{criterion_group, criterion_main, Criterion};
use rcube_baseline::{RankMapping, TableScan};
use rcube_bench::{GateKind, Op, Report};
use rcube_core::gridcube::{GridCubeConfig, GridRankingCube};
use rcube_core::query::{Query, QueryPlan, RankedSource, TopKCursor};
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_func::Linear;
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;
use rcube_table::Relation;

const K: usize = 50;
const DELTA: usize = 50;

struct Setup {
    rel: Relation,
    disk: DiskSim,
    grid: GridRankingCube,
    file_disk: DiskSim,
    file_grid: GridRankingCube,
    rtree: RTree,
    sig: SignatureCube,
    scan: TableScan,
    rank_map: RankMapping,
    path: std::path::PathBuf,
}

fn setup() -> Setup {
    let rel = SyntheticSpec { tuples: 20_000, cardinality: 5, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    // Finer blocks than the §3.5.1 default: more frontier steps between
    // answers, so the progressive profile (first ≪ full ≪ fresh) is
    // visible in whole-block counters at this scale.
    let grid = GridRankingCube::build(
        &rel,
        &disk,
        GridCubeConfig { block_size: 100, ..Default::default() },
    );
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    let sig = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    let scan = TableScan::new(&rel, &disk);
    let rank_map = RankMapping::build(&rel, &disk);
    let mut path = std::env::temp_dir();
    path.push(format!("rcube_prog_bench_{}", std::process::id()));
    grid.save_to(&path).expect("save grid cube");
    let file_grid = GridRankingCube::open_from(&path).expect("reopen grid cube");
    Setup {
        rel,
        disk,
        grid,
        file_disk: DiskSim::with_defaults(),
        file_grid,
        rtree,
        sig,
        scan,
        rank_map,
        path,
    }
}

fn query(k: usize) -> Query {
    Query::select([(0, 1)]).rank(Linear::uniform(2)).top(k)
}

/// Counter profile of one progressive run: blocks charged up to the first
/// answer, up to k, and for an extend_k(Δ) resume, plus the answer stream.
struct Profile {
    blocks_first: u64,
    blocks_at_k: u64,
    blocks_extension: u64,
    items: Vec<(u32, f64)>,
}

fn profile<'a, S: RankedSource<'a>>(source: &S, plan: &QueryPlan<'a>) -> Profile {
    let mut cursor = source.open(plan).expect("open");
    let mut items = Vec::new();
    items.extend(cursor.next());
    let blocks_first = cursor.stats().blocks_read;
    for item in cursor.by_ref() {
        items.push(item);
    }
    let blocks_at_k = cursor.stats().blocks_read;
    cursor.extend_k(DELTA);
    items.extend(cursor.by_ref());
    let blocks_extension = cursor.stats().blocks_read - blocks_at_k;
    Profile { blocks_first, blocks_at_k, blocks_extension, items }
}

fn drain_blocks<'a, S: RankedSource<'a>>(
    source: &S,
    plan: &QueryPlan<'a>,
) -> (u64, Vec<(u32, f64)>) {
    let mut cursor: TopKCursor<'a> = source.open(plan).expect("open");
    let items: Vec<_> = cursor.by_ref().collect();
    (cursor.stats().blocks_read, items)
}

/// Records one source's counters as `<name>.*` metrics.
fn record(report: &mut Report, name: &str, p: &Profile, fresh_blocks: u64) {
    for (counter, blocks) in [
        ("blocks_first_answer", p.blocks_first),
        ("blocks_top_k", p.blocks_at_k),
        ("blocks_extension", p.blocks_extension),
        ("blocks_fresh_k_plus_delta", fresh_blocks),
    ] {
        report.metric(&format!("{name}.{counter}"), "count", &[blocks as f64]);
    }
}

/// The progressive gates: the first answer costs strictly fewer blocks
/// than the full top-k, and resuming strictly fewer than a fresh
/// top-(k+Δ).
fn gate_progressive(report: &mut Report, name: &str, p: &Profile, fresh_blocks: u64) {
    let (first, at_k) = (p.blocks_first as f64, p.blocks_at_k as f64);
    let (extension, fresh) = (p.blocks_extension as f64, fresh_blocks as f64);
    report.gate(&format!("{name}.blocks_first_answer"), first, Op::Lt, at_k, GateKind::Hard).gate(
        &format!("{name}.blocks_extension"),
        extension,
        Op::Lt,
        fresh,
        GateKind::Hard,
    );
}

fn bench_progressive(c: &mut Criterion) {
    let s = setup();
    let q_k = query(K);
    let q_ext = query(K + DELTA);

    // --- Deterministic counters (run once, gated hard) ------------------
    let mut report = Report::new("progressive");

    // Grid cube, in memory.
    let grid_src = s.grid.source(&s.disk);
    let p = profile(&grid_src, &q_k.plan());
    let (fresh_blocks, fresh_items) = drain_blocks(&grid_src, &q_ext.plan());
    assert_eq!(p.items, fresh_items, "grid: paginated items must equal a fresh top-(k+Δ)");
    record(&mut report, "grid_mem", &p, fresh_blocks);
    gate_progressive(&mut report, "grid_mem", &p, fresh_blocks);

    // Grid cube, reopened from file: the same profile must hold.
    let file_src = s.file_grid.source(&s.file_disk);
    let pf = profile(&file_src, &q_k.plan());
    let (fresh_file_blocks, fresh_file_items) = drain_blocks(&file_src, &q_ext.plan());
    assert_eq!(pf.items, fresh_file_items, "grid(file): pagination equality");
    assert_eq!(pf.items, p.items, "grid(file): answers must match in-memory");
    record(&mut report, "grid_file", &pf, fresh_file_blocks);
    gate_progressive(&mut report, "grid_file", &pf, fresh_file_blocks);

    // Signature cube.
    let sig_src = s.sig.source(&s.rtree, &s.disk);
    let ps = profile(&sig_src, &q_k.plan());
    let (fresh_sig_blocks, fresh_sig_items) = drain_blocks(&sig_src, &q_ext.plan());
    assert_eq!(ps.items, fresh_sig_items, "signature: pagination equality");
    record(&mut report, "signature_mem", &ps, fresh_sig_blocks);
    gate_progressive(&mut report, "signature_mem", &ps, fresh_sig_blocks);

    // Table-scan baseline: the recorded contrast — the first answer costs
    // the entire scan, and extension is free only because all work is
    // front-loaded.
    let scan_src = s.scan.source(&s.rel, &s.disk);
    let pb = profile(&scan_src, &q_k.plan());
    let (fresh_scan_blocks, _) = drain_blocks(&scan_src, &q_ext.plan());
    record(&mut report, "table_scan", &pb, fresh_scan_blocks);

    // Rank-mapping baseline: pagination re-plans and re-reads (the
    // order-sensitivity the paper criticizes).
    let rm_src = s.rank_map.source(&s.rel, &s.disk);
    let pr = profile(&rm_src, &q_k.plan());
    let (fresh_rm_blocks, _) = drain_blocks(&rm_src, &q_ext.plan());
    record(&mut report, "rank_mapping", &pr, fresh_rm_blocks);

    report
        .gate(
            "table_scan.blocks_first_answer",
            pb.blocks_first as f64,
            Op::Eq,
            pb.blocks_at_k as f64,
            GateKind::Hard,
        )
        .gate(
            "rank_mapping.blocks_extension",
            pr.blocks_extension as f64,
            Op::Ge,
            fresh_rm_blocks as f64,
            GateKind::Hard,
        );

    // --- Wall time -------------------------------------------------------
    let mut g = c.benchmark_group("progressive");
    g.bench_function("grid/first_answer", |b| {
        b.iter(|| {
            let mut cursor = grid_src.open(&q_k.plan()).expect("open");
            cursor.next().expect("at least one answer")
        })
    });
    g.bench_function("grid/full_top_k", |b| {
        b.iter(|| {
            let mut cursor = grid_src.open(&q_k.plan()).expect("open");
            cursor.by_ref().count()
        })
    });
    g.bench_function("grid/extend_after_k", |b| {
        b.iter(|| {
            let mut cursor = grid_src.open(&q_k.plan()).expect("open");
            cursor.by_ref().count();
            cursor.extend_k(DELTA);
            cursor.by_ref().count()
        })
    });
    g.bench_function("grid/fresh_k_plus_delta", |b| {
        b.iter(|| {
            let mut cursor = grid_src.open(&q_ext.plan()).expect("open");
            cursor.by_ref().count()
        })
    });
    g.bench_function("scan/first_answer", |b| {
        b.iter(|| {
            let mut cursor = scan_src.open(&q_k.plan()).expect("open");
            cursor.next().expect("at least one answer")
        })
    });
    g.finish();

    std::fs::remove_file(&s.path).ok();

    let ms = c.measurements();
    let median = |id: &str| ms.iter().find(|m| m.id == id).map_or(f64::NAN, |m| m.median_ns);
    let ttfa_speedup =
        median("progressive/grid/full_top_k") / median("progressive/grid/first_answer");
    let scan_ttfa_vs_grid =
        median("progressive/scan/first_answer") / median("progressive/grid/first_answer");
    report
        .criterion(ms)
        .metric("grid_ttfa_wall_speedup_vs_full_k", "ratio", &[ttfa_speedup])
        .metric("grid_ttfa_wall_speedup_vs_scan_ttfa", "ratio", &[scan_ttfa_vs_grid])
        .write();
}

criterion_group!(benches, bench_progressive);
criterion_main!(benches);
