//! Posting-list engine micro-benchmarks (Section 3.6.3's fast-merge
//! claim), plus the end-to-end fragments covering-set query they feed.
//!
//! The run writes `BENCH_idlist.json` at the workspace root in the schema
//! documented on [`rcube_bench::Report`]: every benchmark's ns/iter, the
//! speedups (ratios of medians) and one gate:
//!
//! * `speedup_bitmap_intersect` ≥ 5 (`Clock { min_threads: 1 }`):
//!   word-parallel AND + count_ones vs the seed's bit-at-a-time loop on a
//!   dense pair over a 100k universe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcube_bench::{GateKind, Op};
use rcube_core::fragments::{FragmentConfig, RankingFragments};
use rcube_core::idlist::{self, IdListRef, KWayIntersect};
use rcube_core::TopKQuery;
use rcube_func::Linear;
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;
use rcube_table::Tid;

/// The seed implementation, byte-for-byte: test one bit per universe
/// position over the shared prefix. Kept here as the regression baseline.
fn seed_bit_at_a_time(a: &[u8], b: &[u8]) -> Vec<Tid> {
    let ua = u32::from_le_bytes(a[1..5].try_into().unwrap());
    let ub = u32::from_le_bytes(b[1..5].try_into().unwrap());
    let universe = ua.min(ub);
    let mut out = Vec::new();
    for t in 0..universe {
        let byte = 5 + (t / 8) as usize;
        if (a[byte] & b[byte]) >> (t % 8) & 1 == 1 {
            out.push(t);
        }
    }
    out
}

/// The seed loop reduced to the pure bit-at-a-time scan (no output
/// vector): the apples-to-apples baseline for "intersection as wordwise
/// AND + count_ones".
fn seed_bit_at_a_time_count(a: &[u8], b: &[u8]) -> u32 {
    let ua = u32::from_le_bytes(a[1..5].try_into().unwrap());
    let ub = u32::from_le_bytes(b[1..5].try_into().unwrap());
    let universe = ua.min(ub);
    let mut count = 0u32;
    for t in 0..universe {
        let byte = 5 + (t / 8) as usize;
        count += u32::from((a[byte] & b[byte]) >> (t % 8) & 1);
    }
    count
}

/// The seed's k-way shape: decode every list, hash the first, intersect
/// set-by-set.
fn seed_hashset_chain(lists: &[&[u8]]) -> Vec<Tid> {
    use std::collections::HashSet;
    let mut acc: Option<HashSet<Tid>> = None;
    for l in lists {
        let set: HashSet<Tid> = idlist::decode(l).into_iter().collect();
        acc = Some(match acc {
            None => set,
            Some(prev) => prev.intersection(&set).copied().collect(),
        });
    }
    let mut v: Vec<Tid> = acc.unwrap_or_default().into_iter().collect();
    v.sort_unstable();
    v
}

fn dense_pair_100k() -> (Vec<u8>, Vec<u8>) {
    let a: Vec<Tid> = (0..100_000).filter(|t| t % 2 == 0).collect();
    let b: Vec<Tid> = (0..100_000).filter(|t| t % 3 == 0).collect();
    (idlist::encode_bitmap(&a, 100_000), idlist::encode_bitmap(&b, 100_000))
}

fn bench_bitmap_intersect(c: &mut Criterion) {
    let (ea, eb) = dense_pair_100k();
    let mut g = c.benchmark_group("bitmap_intersect_100k");
    g.bench_function("seed_bit_at_a_time", |b| b.iter(|| seed_bit_at_a_time(&ea, &eb)));
    g.bench_function("seed_bit_at_a_time_count", |b| b.iter(|| seed_bit_at_a_time_count(&ea, &eb)));
    g.bench_function("word_parallel", |b| b.iter(|| idlist::intersect(&ea, &eb)));
    g.bench_function("word_parallel_count", |b| {
        let lists = [IdListRef::parse(&ea).unwrap(), IdListRef::parse(&eb).unwrap()];
        b.iter(|| idlist::intersect_cardinality(&lists))
    });
    g.finish();
}

fn bench_kway(c: &mut Criterion) {
    // Three mixed-representation lists of very different cardinalities:
    // the streaming leapfrog should be driven by the rarest one.
    let rare: Vec<Tid> = (0..500u32).map(|i| i * 199).collect();
    let mid: Vec<Tid> = (0..20_000u32).map(|i| i * 5).collect();
    let dense: Vec<Tid> = (0..100_000).filter(|t| t % 2 == 0).collect();
    let er = idlist::encode_skip(&rare);
    let em = idlist::encode_skip(&mid);
    let ed = idlist::encode_bitmap(&dense, 100_000);
    let mut g = c.benchmark_group("kway_intersect_3");
    g.bench_function("seed_decode_hashset", |b| b.iter(|| seed_hashset_chain(&[&er, &em, &ed])));
    g.bench_function("streaming_leapfrog", |b| {
        b.iter(|| {
            let lists = [
                IdListRef::parse(&er).unwrap(),
                IdListRef::parse(&em).unwrap(),
                IdListRef::parse(&ed).unwrap(),
            ];
            KWayIntersect::new(&lists).collect::<Vec<Tid>>()
        })
    });
    g.finish();
}

fn bench_seek(c: &mut Criterion) {
    // Galloping into a long sparse list: skip-table seek vs linear delta.
    let tids: Vec<Tid> = (0..200_000u32).map(|i| i * 17).collect();
    let skip = idlist::encode_skip(&tids);
    let delta = idlist::encode_delta(&tids);
    let targets: Vec<Tid> = (0..64u32).map(|i| i * 50_000 + 13).collect();
    let mut g = c.benchmark_group("seek_200k");
    for (name, enc) in [("skip_gallop", &skip), ("delta_linear", &delta)] {
        g.bench_with_input(BenchmarkId::new(name, targets.len()), enc, |b, enc| {
            b.iter(|| {
                let mut hits = 0u32;
                let mut cur = IdListRef::parse(enc).unwrap().cursor();
                for &t in &targets {
                    cur.seek(t);
                    if cur.current().is_some() {
                        hits += 1;
                    }
                }
                hits
            })
        });
    }
    g.finish();
}

fn bench_fragments_query(c: &mut Criterion) {
    // End-to-end: the fragments covering-set query — every condition pair
    // spans two fragments, so the retrieve step k-way intersects per block.
    let rel =
        SyntheticSpec { tuples: 20_000, selection_dims: 6, cardinality: 5, ..Default::default() }
            .generate();
    let disk = DiskSim::with_defaults();
    let frags =
        RankingFragments::build(&rel, &disk, FragmentConfig { fragment_size: 2, block_size: 300 });
    let mut g = c.benchmark_group("fragments_covering_query");
    for (label, conds) in
        [("span2", vec![(0usize, 1u32), (2, 2)]), ("span3", vec![(0, 1), (2, 2), (4, 0)])]
    {
        g.bench_function(label, |b| {
            let q = TopKQuery::new(conds.clone(), Linear::uniform(2), 10);
            b.iter(|| frags.query(&q, &disk))
        });
    }
    g.finish();
}

/// Writes `BENCH_idlist.json` from every measurement of this run plus
/// the speedups. Runs last in the group.
fn emit_json(c: &mut Criterion) {
    let ms = c.measurements();
    let median = |id: &str| ms.iter().find(|m| m.id == id).map_or(f64::NAN, |m| m.median_ns);
    let speedup = |group: &str, base: &str, new: &str| {
        median(&format!("{group}/{base}")) / median(&format!("{group}/{new}"))
    };
    let bitmap = "bitmap_intersect_100k";
    // Headline: the intersection computed as wordwise AND + count_ones vs
    // the seed's bit-at-a-time scan — like for like, neither materializes.
    let headline = speedup(bitmap, "seed_bit_at_a_time_count", "word_parallel_count");
    let materialize = speedup(bitmap, "seed_bit_at_a_time", "word_parallel");
    let kway = speedup("kway_intersect_3", "seed_decode_hashset", "streaming_leapfrog");
    let seek = speedup("seek_200k", "delta_linear/64", "skip_gallop/64");
    rcube_bench::Report::new("idlist")
        .criterion(ms)
        .gate("speedup_bitmap_intersect", headline, Op::Ge, 5.0, GateKind::Clock { min_threads: 1 })
        .metric("speedup_bitmap_materialize", "ratio", &[materialize])
        .metric("speedup_kway_intersect", "ratio", &[kway])
        .metric("speedup_seek", "ratio", &[seek])
        .write();
}

criterion_group!(
    benches,
    bench_bitmap_intersect,
    bench_kway,
    bench_seek,
    bench_fragments_query,
    emit_json
);
criterion_main!(benches);
