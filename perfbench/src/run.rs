//! The measured window: closed-loop clients replaying their
//! pre-generated streams through the `Engine` front door.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ranking_cube::prelude::*;
use ranking_cube::table::Tid;

use crate::oracle::{check_exact, Answer};
use crate::trace::{Recorder, Span};
use crate::workload::{Inputs, Op};

/// What the clients share.
pub struct Shared<'a> {
    pub engine: &'a Engine,
    pub delta: Option<&'a DeltaCube>,
    pub inputs: &'a Inputs,
    /// The oracle's answer per query on read-only workloads, checked as
    /// each answer arrives. `None` records answers for a check after the
    /// window instead.
    pub expected: Option<&'a [Answer]>,
    /// Flush when the memtable holds this many ops.
    pub watermark: usize,
}

/// When a window ends.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Clients send no op after this many seconds.
    pub seconds: f64,
    /// Or, when set, once this many flushes have completed.
    pub flushes: Option<usize>,
}

/// Sums of the per-query counters the engine reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryAgg {
    pub queries: u64,
    pub answers: u64,
    pub blocks: u64,
    pub tuples_scored: u64,
    pub sig_nodes: u64,
    pub sig_bytes: u64,
    pub shared_hits: u64,
    pub retries: u64,
    pub fallbacks: u64,
    pub shards_opened: u64,
    pub shards_pruned: u64,
    pub delta_mem: u64,
    pub delta_masked: u64,
}

impl QueryAgg {
    fn add(&mut self, s: &QueryStats, answers: usize) {
        self.queries += 1;
        self.answers += answers as u64;
        self.blocks += s.blocks_read;
        self.tuples_scored += s.tuples_scored;
        self.sig_nodes += s.sig_nodes_decoded;
        self.sig_bytes += s.sig_bytes_decoded;
        self.shared_hits += s.shared_node_hits;
        self.retries += s.path_retries;
        self.fallbacks += s.path_fallbacks;
        self.shards_opened += s.shards_opened;
        self.shards_pruned += s.shards_pruned;
        self.delta_mem += s.delta_mem_answers;
        self.delta_masked += s.delta_masked;
    }

    fn merge(&mut self, o: &QueryAgg) {
        self.queries += o.queries;
        self.answers += o.answers;
        self.blocks += o.blocks;
        self.tuples_scored += o.tuples_scored;
        self.sig_nodes += o.sig_nodes;
        self.sig_bytes += o.sig_bytes;
        self.shared_hits += o.shared_hits;
        self.retries += o.retries;
        self.fallbacks += o.fallbacks;
        self.shards_opened += o.shards_opened;
        self.shards_pruned += o.shards_pruned;
        self.delta_mem += o.delta_mem;
        self.delta_masked += o.delta_masked;
    }
}

/// An answer served while writes were landing, with the interval it was
/// served in, on the window's clock.
#[derive(Debug)]
pub struct LiveAnswer {
    pub q: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: Answer,
}

/// Everything one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Latencies of untraced ops only. Batch `try_query`:
    pub batch_ns: Vec<u64>,
    /// `open` to first answer on streamed queries.
    pub first_ns: Vec<u64>,
    /// `open` to the last pull on streamed queries.
    pub stream_ns: Vec<u64>,
    /// Insert/delete acknowledgements.
    pub write_ns: Vec<u64>,
    /// Memtable ops each completed flush applied.
    pub flushed_ops: Vec<usize>,
    pub ops: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Answers kept for the check after the window.
    pub answers: Vec<LiveAnswer>,
    /// Acknowledged inserts: `(tid, selection, point, acknowledged at)`.
    pub inserted: Vec<(Tid, Vec<u32>, Vec<f64>, u64)>,
    /// Acknowledged deletes: `(tid, acknowledged at)`.
    pub deleted: Vec<(Tid, u64)>,
    pub agg: QueryAgg,
    pub spans: Vec<Span>,
    pub end_ns: u64,
}

impl ClientLog {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// The clients' logs from one window.
pub struct Window {
    pub logs: Vec<ClientLog>,
    /// From the start to the last client's last op.
    pub elapsed_ns: u64,
}

impl Window {
    pub fn ops(&self) -> u64 {
        self.logs.iter().map(|l| l.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }

    pub fn collect<T: Copy>(&self, f: impl Fn(&ClientLog) -> &Vec<T>) -> Vec<T> {
        self.logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    }

    pub fn agg(&self) -> QueryAgg {
        let mut a = QueryAgg::default();
        for l in &self.logs {
            a.merge(&l.agg);
        }
        a
    }

    pub fn spans(&self) -> Vec<Span> {
        self.logs.iter().flat_map(|l| l.spans.iter().copied()).collect()
    }

    pub fn flushed_ops(&self) -> Vec<usize> {
        self.collect(|l| &l.flushed_ops)
    }
}

/// The state clients share within one window.
struct Clock {
    deadline_ns: u64,
    stop_flushes: Option<usize>,
    flushes: AtomicUsize,
    flush_lock: Mutex<()>,
}

impl Clock {
    fn done(&self, now_ns: u64) -> bool {
        now_ns >= self.deadline_ns
            || self.stop_flushes.is_some_and(|f| self.flushes.load(Ordering::SeqCst) >= f)
    }
}

/// Runs every client until `stop`, each replaying its own stream; a
/// tracing window traces every other op.
pub fn run_window(shared: &Shared<'_>, stop: Stop, tracing: bool) -> Window {
    let clock = Clock {
        deadline_ns: (stop.seconds * 1e9) as u64,
        stop_flushes: stop.flushes,
        flushes: AtomicUsize::new(0),
        flush_lock: Mutex::new(()),
    };
    let epoch = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shared.inputs.streams.len())
            .map(|c| {
                let stream = &shared.inputs.streams[c];
                let rec = Recorder::new(tracing, epoch, c as u64);
                let clock = &clock;
                s.spawn(move || client(shared, stream, clock, rec))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed_ns = logs.iter().map(|l| l.end_ns).max().unwrap_or(0);
    Window { logs, elapsed_ns }
}

fn client(shared: &Shared<'_>, stream: &[Op], clock: &Clock, mut rec: Recorder) -> ClientLog {
    let engine = shared.engine;
    let mut log = ClientLog::default();
    // This client's live inserts, oldest first: delete victims.
    let mut live: Vec<Tid> = Vec::new();
    for op in stream.iter().cycle() {
        if clock.done(rec.now()) {
            break;
        }
        let id = rec.begin_op(false);
        let untraced = !rec.enabled();
        match op {
            &Op::Query { q, streamed: false } => {
                let query = &shared.inputs.queries[q as usize];
                let t0 = rec.now();
                let res = rec.child(id, "engine.try_query", || engine.try_query(query));
                let t1 = rec.now();
                rec.root(id, "op.query", t0, t1);
                if untraced {
                    log.batch_ns.push(t1 - t0);
                }
                match res {
                    Ok(r) => {
                        log.agg.add(&r.stats, r.items.len());
                        answered(shared, &mut log, q, (t0, t1), r.items);
                    }
                    Err(e) => log.fail(format!("try_query: {e}")),
                }
            }
            &Op::Query { q, streamed: true } => {
                let query = &shared.inputs.queries[q as usize];
                let t0 = rec.now();
                if rec.enabled() {
                    rec.child(id, "engine.route", || engine.route(query));
                }
                let opened = rec.child(id, "engine.open", || engine.open(query));
                let mut items = Vec::with_capacity(query.k());
                let mut error = None;
                match opened {
                    Ok(mut cursor) => {
                        loop {
                            match rec.child(id, "cursor.try_next", || cursor.try_next()) {
                                Ok(Some(item)) => {
                                    if items.is_empty() && untraced {
                                        log.first_ns.push(rec.now() - t0);
                                    }
                                    items.push(item);
                                }
                                Ok(None) => break,
                                Err(e) => {
                                    error = Some(format!("try_next: {e}"));
                                    break;
                                }
                            }
                        }
                        log.agg.add(&cursor.stats(), items.len());
                    }
                    Err(e) => error = Some(format!("open: {e}")),
                }
                let t1 = rec.now();
                rec.root(id, "op.stream", t0, t1);
                if untraced {
                    log.stream_ns.push(t1 - t0);
                }
                match error {
                    None => answered(shared, &mut log, q, (t0, t1), items),
                    Some(e) => log.fail(e),
                }
            }
            Op::Insert { sel, point } => {
                let t0 = rec.now();
                let res = rec.child(id, "delta.insert", || engine.insert(sel, point));
                let t1 = rec.now();
                rec.root(id, "op.insert", t0, t1);
                if untraced {
                    log.write_ns.push(t1 - t0);
                }
                match res {
                    Ok(tid) => {
                        live.push(tid);
                        log.inserted.push((tid, sel.clone(), point.clone(), t1));
                    }
                    Err(e) => log.fail(format!("insert: {e}")),
                }
                maybe_flush(shared, &mut log, &mut rec, clock);
            }
            &Op::Delete { victim_rank } => {
                if live.is_empty() {
                    continue; // a replayed stream can run ahead of its inserts
                }
                let tid = live.remove(live.len() - 1 - victim_rank.min(live.len() - 1));
                let t0 = rec.now();
                let res = rec.child(id, "delta.delete", || engine.delete(tid));
                let t1 = rec.now();
                rec.root(id, "op.delete", t0, t1);
                if untraced {
                    log.write_ns.push(t1 - t0);
                }
                match res {
                    Ok(()) => log.deleted.push((tid, t1)),
                    Err(e) => log.fail(format!("delete {tid}: {e}")),
                }
                maybe_flush(shared, &mut log, &mut rec, clock);
            }
        }
        log.ops += 1;
    }
    log.end_ns = rec.now();
    log.spans = std::mem::take(&mut rec.spans);
    log
}

fn answered(shared: &Shared<'_>, log: &mut ClientLog, q: u32, span: (u64, u64), items: Answer) {
    match shared.expected {
        Some(expected) => {
            if let Err(e) = check_exact(&expected[q as usize], &items) {
                log.fail(format!("query {q}: {e}"));
            }
        }
        None => log.answers.push(LiveAnswer { q, start_ns: span.0, end_ns: span.1, items }),
    }
}

/// The flush policy: the client whose write took the memtable to the
/// watermark flushes, one flush at a time.
fn maybe_flush(shared: &Shared<'_>, log: &mut ClientLog, rec: &mut Recorder, clock: &Clock) {
    let Some(delta) = shared.delta else { return };
    if delta.memtable_len() < shared.watermark {
        return;
    }
    let Ok(_guard) = clock.flush_lock.try_lock() else { return };
    if delta.memtable_len() < shared.watermark {
        return;
    }
    let id = rec.begin_op(true);
    let t0 = rec.now();
    let res = rec.child(id, "delta.flush", || delta.flush());
    let t1 = rec.now();
    rec.root(id, "op.flush", t0, t1);
    match res {
        Ok(r) => {
            log.flushed_ops.push(r.applied_ops);
            clock.flushes.fetch_add(1, Ordering::SeqCst);
        }
        Err(e) => log.fail(format!("flush: {e}")),
    }
}
