//! Front-door benchmark of record for the ranking cube.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm|mixed_rw|sharded_cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Seeded closed-loop clients drive the public `Engine` API; every
//! answer is checked against a brute-force oracle. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` traces every other op and prints the
//! per-layer breakdown. The last line of standard output
//! is one JSON object. See `perfbench/README.md`.

mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use ranking_cube::prelude::*;

use oracle::{check_exact, check_scores, Acks, Answer, Oracle};
use run::{run_window, Shared, Stop, Window};
use stats::{median, ns_to_us, percentile, ratio};
use workload::{Inputs, Seeds, Served, TempDir, Workload};

const USAGE: &str = "usage: perfbench --workload serve_warm|mixed_rw|sharded_cold \
                     --seed N --seconds S --trace 0|1";
/// The first distinct queries, run through `explain_analyze` for the
/// fan-out after the window.
const FANOUT_SAMPLE: usize = 100;
/// The layer sum must reconcile with op wall time within this share.
const RECONCILE_TOLERANCE: f64 = 0.10;
/// `mixed_rw` runs one flush cycle per this many seconds of `--seconds`.
const SECONDS_PER_FLUSH: f64 = 2.5;
/// A flush-bounded window gives up after this multiple of `--seconds`.
const FLUSH_WINDOW_CAP: f64 = 4.0;
/// Where set-ups build their cube files, relative to the working directory.
const TMP_ROOT: &str = ".bench_tmp";
/// Where traced runs write their spans.
const OUT_ROOT: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// Counts of checks outside the measured ops: warm-up answers, the
/// quiesced re-checks, the rebuilt-cube identity and the fan-out sample.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn record(&mut self, what: &str, res: Result<(), String>) {
        self.attempted += 1;
        self.fail_op(what, res);
    }

    /// A failure found late in an op already counted as attempted.
    fn fail_op(&mut self, what: &str, res: Result<(), String>) {
        if let Err(e) = res {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

/// Everything one measured window produced.
struct Measured {
    window: Window,
    checks: Checks,
    disk_bytes: u64,
    live_tuples: usize,
    /// Buffer-pool hits, misses, evictions and device reads, summed over
    /// shards, during the window.
    pool: [u64; 4],
    /// Fan-out sample: answers and pulls over every shard.
    fanout: (u64, u64),
    wal_bytes_end: u64,
    open_fds_end: u64,
    cells_replaced: u64,
    pages_appended: u64,
}

impl Measured {
    fn attempted(&self) -> u64 {
        self.window.ops() + self.checks.attempted
    }

    fn failed(&self) -> u64 {
        self.window.failed() + self.checks.failed
    }
}

fn pool_totals(engine: &Engine) -> [u64; 4] {
    let mut t = [0u64; 4];
    if let Some(cube) = engine.sharded_cube() {
        for shard in cube.shards() {
            if let Some(p) = shard.pool_stats() {
                t[0] += p.hits();
                t[1] += p.misses();
                t[2] += p.evictions();
            }
            t[3] += shard.io().disk_reads;
        }
    }
    t
}

fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd").map(|d| d.count() as u64).unwrap_or(0)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Warm-up, the window, and every check that follows it.
fn measure(
    served: &Served,
    inputs: &Inputs,
    base: &Oracle,
    expected: Option<&[Answer]>,
    stop: Stop,
    tracing: bool,
) -> Measured {
    let engine = &served.engine;
    let mut checks = Checks::default();
    // Warm the pools and node caches; the base state is the oracle's.
    for &q in &inputs.warmup {
        let spec = &inputs.specs[q as usize];
        let res = engine.try_query(&inputs.queries[q as usize]).map_err(|e| e.to_string());
        checks.record("warm-up", res.and_then(|r| check_exact(&base.top_k(spec), &r.items)));
    }

    let shared = Shared {
        engine,
        delta: served.delta.as_deref(),
        inputs,
        expected,
        watermark: MaintenanceConfig::default().flush_watermark_ops as usize,
    };
    let pool_before = pool_totals(engine);
    let window = run_window(&shared, stop, tracing);
    let pool_after = pool_totals(engine);
    let pool = std::array::from_fn(|i| pool_after[i] - pool_before[i]);

    // The logical relation after the window: base, plus every
    // acknowledged insert in tid order, minus every acknowledged delete.
    let mut logical = base.clone();
    let mut inserted: Vec<_> = window.logs.iter().flat_map(|l| &l.inserted).collect();
    inserted.sort_by_key(|(tid, ..)| *tid);
    for (tid, sel, point, _) in &inserted {
        checks.fail_op("insert log", logical.insert(*tid, sel, point));
    }
    // Answers served while writes were landing: their shape, and that
    // they saw every write acknowledged before they started.
    let acks = Acks {
        inserted: inserted.iter().map(|(tid, .., at)| (*tid, *at)).collect(),
        deleted: window.logs.iter().flat_map(|l| l.deleted.iter().copied()).collect(),
    };
    for a in window.logs.iter().flat_map(|l| &l.answers) {
        let spec = &inputs.specs[a.q as usize];
        let res = logical
            .check_shape(spec, &a.items)
            .and_then(|()| logical.check_visibility(spec, &a.items, (a.start_ns, a.end_ns), &acks));
        checks.fail_op("live answer", res);
    }
    for (tid, _) in window.logs.iter().flat_map(|l| &l.deleted) {
        checks.fail_op("delete log", logical.delete(*tid));
    }
    if expected.is_none() {
        quiesced_checks(engine, inputs, &logical, &mut checks);
    }

    let mut fanout = (0, 0);
    if engine.sharded_cube().is_some() {
        // Queries are interned in the order they are first sent.
        for q in 0..FANOUT_SAMPLE.min(inputs.specs.len()) as u32 {
            let res = engine.explain_analyze(&inputs.queries[q as usize]);
            let res = res.map_err(|e| e.to_string()).and_then(|r| {
                if let Some(f) = &r.fanout {
                    fanout.0 += f.shards.iter().map(|s| s.answers).sum::<u64>();
                    fanout.1 += f.shards.iter().map(|s| s.pulls).sum::<u64>();
                }
                check_exact(&logical.top_k(&inputs.specs[q as usize]), &r.items)
            });
            checks.record("explain_analyze", res);
        }
    }

    let metrics = &served.metrics;
    Measured {
        checks,
        disk_bytes: served.dir.bytes(),
        live_tuples: logical.live(),
        pool,
        fanout,
        wal_bytes_end: served.delta.as_ref().map_or(0, |d| d.stats().wal_bytes),
        open_fds_end: open_fds(),
        cells_replaced: metrics.counter("maintenance.cells_replaced").get(),
        pages_appended: metrics.counter("maintenance.pages_appended").get(),
        window,
    }
}

/// On the quiesced `mixed_rw` state, for every distinct query of the
/// run: the merged view answers exactly like the oracle (tids and
/// scores), and like a signature cube built anew over the
/// logical relation (scores; the rebuild renumbers tids).
fn quiesced_checks(engine: &Engine, inputs: &Inputs, logical: &Oracle, checks: &mut Checks) {
    let mut served: Vec<(u32, Answer)> = Vec::with_capacity(inputs.specs.len());
    for q in 0..inputs.specs.len() as u32 {
        let res = engine.try_query(&inputs.queries[q as usize]).map_err(|e| e.to_string());
        let res = res.and_then(|r| {
            let check = check_exact(&logical.top_k(&inputs.specs[q as usize]), &r.items);
            served.push((q, r.items));
            check
        });
        checks.record("quiesced", res);
    }
    let mut b = RelationBuilder::new(engine.relation().schema().clone());
    for (sel, point) in logical.live_tuples() {
        b.push(sel, point);
    }
    let rel = b.finish();
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    for (q, got) in &served {
        let plan = inputs.queries[*q as usize].plan();
        let res = cube.source(&rtree, &disk).open(&plan).and_then(|mut c| c.try_drain());
        let res = res.map_err(|e| e.to_string()).and_then(|r| check_scores(&r.items, got));
        checks.record("rebuilt cube", res);
    }
}

/// How long a window of `seconds` runs. Read-only windows run for the
/// time given. `mixed_rw` runs a fixed number of flush cycles instead:
/// its cube file grows with every flush, so a fixed-time window would
/// end on a different history (and file size) whenever flush speed
/// changed.
fn stop_for(w: Workload, seconds: f64) -> Stop {
    match w {
        Workload::MixedRw => Stop {
            seconds: seconds * FLUSH_WINDOW_CAP,
            flushes: Some(((seconds / SECONDS_PER_FLUSH).round() as usize).max(1)),
        },
        _ => Stop { seconds, flushes: None },
    }
}

fn temp_dir(args: &Args, tag: &str) -> Result<TempDir, String> {
    let name = format!("{}-{}-{}-{tag}", args.workload.name(), args.seed, std::process::id());
    TempDir::new(Path::new(TMP_ROOT).join(name)).map_err(|e| format!("temp dir: {e}"))
}

fn end_to_end(args: &Args, setup_s: &[f64], r: &Measured) -> Vec<Metric> {
    let batch = ns_to_us(&r.window.collect(|l| &l.batch_ns));
    let first = ns_to_us(&r.window.collect(|l| &l.first_ns));
    eprintln!(
        "{}: {} ops ({} batch, {} streamed) in {:.3} s",
        args.workload.name(),
        r.window.ops(),
        batch.len(),
        first.len(),
        r.window.elapsed_ns as f64 / 1e9
    );
    vec![
        m("query_p50_us", median(&batch).unwrap_or(0.0), "us"),
        m("first_answer_p50_us", median(&first).unwrap_or(0.0), "us"),
        m("ops_per_s", r.window.ops_per_s(), "1/s"),
        m("disk_bytes_per_tuple", ratio(r.disk_bytes as f64, r.live_tuples as f64), "B"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m("setup_s", median(setup_s).unwrap_or(0.0), "s"),
    ]
}

/// The per-layer breakdown of a tracing window: latencies from the spans
/// of its traced ops, counters from all of its ops, and end-to-end
/// latencies from its untraced ops.
fn per_layer(t: &Measured) -> (Vec<Metric>, Result<(), String>) {
    let spans = t.window.spans();
    let us = |v: &[u64]| median(&ns_to_us(v)).unwrap_or(0.0);
    let durs = |name: &str| -> Vec<u64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns()).collect()
    };
    // Per streamed op: open minus route, and every pull after the first
    // that returned an answer (the last pull of each op returns none).
    let mut by_op: std::collections::BTreeMap<u64, Vec<&trace::Span>> = Default::default();
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        by_op.entry(s.op).or_default().push(s);
    }
    let (mut open_ns, mut pull_ns) = (Vec::new(), Vec::new());
    for children in by_op.values() {
        let route = children.iter().find(|s| s.name == "engine.route").map(|s| s.dur_ns());
        if let (Some(route), Some(open)) =
            (route, children.iter().find(|s| s.name == "engine.open"))
        {
            open_ns.push(open.dur_ns().saturating_sub(route));
        }
        let pulls: Vec<u64> =
            children.iter().filter(|s| s.name == "cursor.try_next").map(|s| s.dur_ns()).collect();
        if pulls.len() > 2 {
            pull_ns.extend_from_slice(&pulls[1..pulls.len() - 1]);
        }
    }
    // Writes that overlapped a flush waited on it.
    let flushes: Vec<&trace::Span> = spans.iter().filter(|s| s.name == "delta.flush").collect();
    let (mut append_ns, mut stall_ns) = (Vec::new(), Vec::new());
    for s in spans.iter().filter(|s| s.name == "delta.insert" || s.name == "delta.delete") {
        if flushes.iter().any(|f| f.overlaps(s)) {
            stall_ns.push(s.dur_ns());
        } else {
            append_ns.push(s.dur_ns());
        }
    }
    let flush_ns = durs("delta.flush");
    let flush_total: u64 = flush_ns.iter().sum();
    let applied: usize = t.window.flushed_ops().iter().sum();
    let busy_ns: u64 = spans.iter().filter(|s| s.parent.is_none()).map(|s| s.dur_ns()).sum();
    let flush_count = flush_ns.len() as f64;

    let mut worst = 1.0f64;
    let mut reconciled = Ok(());
    for (kind, r) in trace::reconcile(&spans, RECONCILE_TOLERANCE) {
        let ratio = r.ratio();
        eprintln!(
            "trace: {kind}: {} ops, layer sum / wall = {ratio:.4}; {} ops within ±{:.0}% alone",
            r.ops,
            r.ops_within,
            RECONCILE_TOLERANCE * 100.0
        );
        if (ratio - 1.0).abs() > (worst - 1.0).abs() {
            worst = ratio;
        }
        if (ratio - 1.0).abs() > RECONCILE_TOLERANCE {
            reconciled = Err(format!("{kind}: layer sum is {ratio:.3} of op wall time"));
        }
    }

    let a = t.window.agg();
    let q = a.queries as f64;
    let [hits, misses, evictions, reads] = t.pool;
    let batch = ns_to_us(&t.window.collect(|l| &l.batch_ns));
    let writes = ns_to_us(&t.window.collect(|l| &l.write_ns));
    // Tracing overhead: traced against untraced query ops of one window.
    let mut untraced_q = t.window.collect(|l| &l.batch_ns);
    untraced_q.extend(t.window.collect(|l| &l.stream_ns));
    let traced_q: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "op.query" || s.name == "op.stream")
        .map(|s| s.dur_ns())
        .collect();
    let overhead = ratio(us(&traced_q), us(&untraced_q)) - 1.0;
    let metrics = vec![
        m("engine.route_us", us(&durs("engine.route")), "us"),
        m("engine.retries", a.retries as f64, "count"),
        m("engine.fallbacks", a.fallbacks as f64, "count"),
        m("query.open_us", us(&open_ns), "us"),
        m("query.pull_us", us(&pull_ns), "us"),
        m("query.blocks_per_query", ratio(a.blocks as f64, q), "count"),
        m(
            "query.tuples_scored_per_answer",
            ratio(a.tuples_scored as f64, a.answers as f64),
            "count",
        ),
        m("sig.nodes_decoded_per_query", ratio(a.sig_nodes as f64, q), "count"),
        m("sig.bytes_decoded_per_query", ratio(a.sig_bytes as f64, q), "B"),
        m(
            "sig.shared_hit_ratio",
            ratio(a.shared_hits as f64, (a.shared_hits + a.sig_nodes) as f64),
            "ratio",
        ),
        m(
            "grid.blocks_per_answer",
            if a.shards_opened > 0 { ratio(a.blocks as f64, a.answers as f64) } else { 0.0 },
            "count",
        ),
        m("shard.opened_per_query", ratio(a.shards_opened as f64, q), "count"),
        m("shard.pruned_per_query", ratio(a.shards_pruned as f64, q), "count"),
        m("shard.answers_per_pull", ratio(t.fanout.0 as f64, t.fanout.1 as f64), "ratio"),
        m("delta.append_us", us(&append_ns), "us"),
        m("delta.stall_ms", us(&stall_ns) / 1e3, "ms"),
        m("delta.flush_ms", us(&flush_ns) / 1e3, "ms"),
        m("delta.flush_us_per_op", ratio(flush_total as f64 / 1e3, applied as f64), "us"),
        m("delta.flush_share", ratio(flush_total as f64, busy_ns as f64), "ratio"),
        m("delta.masked_per_query", ratio(a.delta_masked as f64, q), "count"),
        m("delta.memtable_answer_frac", ratio(a.delta_mem as f64, a.answers as f64), "ratio"),
        m("delta.wal_bytes_end", t.wal_bytes_end as f64, "B"),
        m("delta.open_fds_end", t.open_fds_end as f64, "count"),
        m("delta.cells_rewritten_per_flush", ratio(t.cells_replaced as f64, flush_count), "count"),
        m("delta.pages_appended_per_flush", ratio(t.pages_appended as f64, flush_count), "count"),
        m("pool.hit_rate", ratio(hits as f64, (hits + misses) as f64), "ratio"),
        m("pool.evictions_per_query", ratio(evictions as f64, q), "count"),
        m("storage.page_reads_per_query", ratio(reads as f64, q), "count"),
        m("trace.overhead_pct", overhead * 100.0, "pct"),
        m("trace.layer_sum_ratio", worst, "ratio"),
        m("query_p99_us", percentile(&batch, 99.0).unwrap_or(0.0), "us"),
        m("write_p50_us", median(&writes).unwrap_or(0.0), "us"),
        m("write_p99_us", percentile(&writes, 99.0).unwrap_or(0.0), "us"),
        m("failed_frac", ratio(t.failed() as f64, t.attempted() as f64), "ratio"),
    ];
    (metrics, reconciled)
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, x.value, x.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report_errors(r: &Measured) {
    for e in r.window.logs.iter().flat_map(|l| &l.errors).chain(&r.checks.errors) {
        eprintln!("error: {e}");
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let seeds = Seeds::derive(args.seed);
    println!(
        "perfbench workload={} seed={} client_seeds={:?} warmup_seed={} data_seed={} seconds={} trace={}",
        w.name(),
        seeds.workload,
        &seeds.clients[..w.clients()],
        seeds.warmup,
        workload::DATA_SEED,
        args.seconds,
        u8::from(args.trace)
    );
    let fresh = |tag: &str| -> Result<(Served, f64), String> {
        let dir = temp_dir(args, tag)?;
        let t = Instant::now();
        let served = workload::setup(w, dir)?;
        Ok((served, t.elapsed().as_secs_f64()))
    };

    let (mut served, first_setup) = fresh("0")?;
    let rel = served.engine.relation().clone();
    let inputs = workload::generate(w, &seeds, &rel);
    let base = Oracle::from_relation(&rel);
    let expected: Option<Vec<Answer>> =
        (w != Workload::MixedRw).then(|| inputs.specs.iter().map(|s| base.top_k(s)).collect());
    let expected = expected.as_deref();
    eprintln!("{}: {} distinct queries", w.name(), inputs.specs.len());

    let (metrics, correct, attempted, failed) = if !args.trace {
        let mut setup_s = vec![first_setup];
        for i in 1..w.setup_repeats() {
            drop(served);
            let (s, secs) = fresh(&i.to_string())?;
            served = s;
            setup_s.push(secs);
        }
        let r = measure(&served, &inputs, &base, expected, stop_for(w, args.seconds), false);
        drop(served);
        report_errors(&r);
        let metrics = end_to_end(args, &setup_s, &r);
        (metrics, r.failed() == 0, r.attempted(), r.failed())
    } else {
        let t = measure(&served, &inputs, &base, expected, stop_for(w, args.seconds), true);
        drop(served);
        report_errors(&t);
        let spans = t.window.spans();
        let out = PathBuf::from(OUT_ROOT).join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
        trace::write_tsv(&out, &spans).map_err(|e| format!("writing {}: {e}", out.display()))?;
        eprintln!("trace: {} spans written to {}", spans.len(), out.display());
        let (metrics, reconcile) = per_layer(&t);
        if let Err(e) = &reconcile {
            eprintln!("error: trace does not reconcile: {e}");
        }
        (metrics, t.failed() == 0 && reconcile.is_ok(), t.attempted(), t.failed())
    };
    let _ = std::fs::remove_dir(TMP_ROOT); // only if no other run is using it

    for x in &metrics {
        println!("{} = {} {}", x.name, x.value, x.unit);
    }
    println!("{}", json_result(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
