//! The three workloads: their sizes, their seeded op streams, and the
//! set-up that builds, saves and opens each one's cube files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranking_cube::cube::shard::ShardEngineConfig;
use ranking_cube::prelude::*;
use ranking_cube::table::gen::{DataDist, SyntheticSpec};
use ranking_cube::table::workload::{
    MixedWorkloadGen, MixedWorkloadParams, QuerySpec, WorkloadOp, WorkloadParams, ZipfQueryGen,
};

/// The most closed-loop client threads a workload runs.
pub const MAX_CLIENTS: usize = 2;
/// Share of queries streamed through `Engine::open` instead of batch.
pub const STREAMED_SHARE: f64 = 0.25;
/// Page size of every cube file.
pub const PAGE: usize = 4096;
/// Ops pre-generated per client. A client that exhausts its stream
/// replays it from the start.
pub const STREAM_OPS: usize = 100_000;
/// Warm-up queries run before the clock starts.
pub const WARMUP_QUERIES: usize = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only Zipf queries on the delta route over a cube that fits
    /// its pool.
    ServeWarm,
    /// The same engine under the seeded Zipf mixed read/write stream,
    /// flushing at the maintenance watermark.
    MixedRw,
    /// Read-only Zipf queries on a 4-shard grid cube set whose pools hold
    /// a sliver of the shard files.
    ShardedCold,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ServeWarm, Workload::MixedRw, Workload::ShardedCold];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve_warm",
            Workload::MixedRw => "mixed_rw",
            Workload::ShardedCold => "sharded_cold",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tuples in the base relation.
    pub fn tuples(self) -> usize {
        match self {
            Workload::ServeWarm | Workload::MixedRw => 20_000,
            Workload::ShardedCold => 200_000,
        }
    }

    /// Zipf exponent over selection values.
    pub fn value_skew(self) -> f64 {
        match self {
            Workload::ServeWarm => 1.1,
            Workload::MixedRw => 1.0,
            Workload::ShardedCold => 0.8,
        }
    }

    /// Buffer-pool pages per cube file (per shard on `sharded_cold`).
    pub fn pool_pages(self) -> usize {
        match self {
            Workload::ServeWarm | Workload::MixedRw => 4096,
            Workload::ShardedCold => 16,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. Fewer on
    /// `sharded_cold`, whose every set-up writes ≈153 MiB.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::ServeWarm | Workload::MixedRw => 7,
            Workload::ShardedCold => 3,
        }
    }

    /// Closed-loop client threads. The read-only workloads run one: with
    /// two, their `query_p50_us` measured cross-core contention, which
    /// swung by ±9% between runs on a 2-vCPU VM. `mixed_rw` runs two so
    /// one client's writes queue behind the other's flush.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeWarm | Workload::ShardedCold => 1,
            Workload::MixedRw => 2,
        }
    }
}

/// Seed of the base relation. The data set is a fixed fixture, so runs
/// with different workload seeds differ only in their traffic.
pub const DATA_SEED: u64 = 42;

/// Every traffic seed a run uses, derived from the one on the command
/// line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub workload: u64,
    pub warmup: u64,
    pub clients: [u64; MAX_CLIENTS],
}

/// SplitMix64: a bijective mix, so distinct inputs give distinct seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seeds {
    pub fn derive(workload: u64) -> Self {
        Self {
            workload,
            warmup: mix(workload ^ 0x3A53),
            clients: std::array::from_fn(|c| mix(workload ^ (0xC11E_0000 + c as u64))),
        }
    }
}

/// One pre-generated client op.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Query `q` of [`Inputs::specs`], batch or streamed.
    Query {
        q: u32,
        streamed: bool,
    },
    Insert {
        sel: Vec<u32>,
        point: Vec<f64>,
    },
    /// Delete the client's `victim_rank`-th most recent live insert.
    Delete {
        victim_rank: usize,
    },
}

/// Everything the clients send, generated before the clock starts.
/// Queries are interned: ops refer to them by index.
pub struct Inputs {
    pub specs: Vec<QuerySpec>,
    pub queries: Vec<Query>,
    pub streams: Vec<Vec<Op>>,
    pub warmup: Vec<u32>,
}

fn params(seed: u64) -> WorkloadParams {
    WorkloadParams { num_conditions: 2, num_ranking: 2, k: 10, skewness: 2.0, seed }
}

fn query_of(spec: &QuerySpec) -> Query {
    Query::select(spec.selection.conds().to_vec())
        .rank_on(spec.ranking_dims.clone(), Linear::new(spec.weights.clone()))
        .top(spec.k)
}

#[derive(Default)]
struct Interner {
    index: BTreeMap<String, u32>,
    specs: Vec<QuerySpec>,
}

impl Interner {
    fn intern(&mut self, spec: QuerySpec) -> u32 {
        let bits: Vec<u64> = spec.weights.iter().map(|w| w.to_bits()).collect();
        let key =
            format!("{:?}|{:?}|{:?}|{}", spec.selection.conds(), spec.ranking_dims, bits, spec.k);
        let next = self.specs.len() as u32;
        *self.index.entry(key).or_insert_with(|| {
            self.specs.push(spec);
            next
        })
    }
}

/// Generates every client's op stream (and the warm-up queries) from the
/// seeds; `rel` supplies only the schema.
pub fn generate(w: Workload, seeds: &Seeds, rel: &Relation) -> Inputs {
    let mut interner = Interner::default();
    let n = STREAM_OPS;
    let mut streams = Vec::with_capacity(w.clients());
    for &seed in &seeds.clients[..w.clients()] {
        let mut streamed = StdRng::seed_from_u64(mix(seed ^ 0x57E4));
        let mut ops = Vec::with_capacity(n);
        match w {
            Workload::ServeWarm | Workload::ShardedCold => {
                let mut gen = ZipfQueryGen::new(params(seed), w.value_skew());
                for _ in 0..n {
                    let q = interner.intern(gen.next_query(rel));
                    ops.push(Op::Query { q, streamed: streamed.gen_bool(STREAMED_SHARE) });
                }
            }
            Workload::MixedRw => {
                let mut gen = MixedWorkloadGen::new(MixedWorkloadParams {
                    query: params(seed),
                    value_skew: w.value_skew(),
                    ..MixedWorkloadParams::default()
                });
                for _ in 0..n {
                    ops.push(match gen.next_op(rel) {
                        WorkloadOp::Query(spec) => Op::Query {
                            q: interner.intern(spec),
                            streamed: streamed.gen_bool(STREAMED_SHARE),
                        },
                        WorkloadOp::Insert { sel, point } => Op::Insert { sel, point },
                        WorkloadOp::Delete { victim_rank } => Op::Delete { victim_rank },
                    });
                }
            }
        }
        streams.push(ops);
    }
    let mut gen = ZipfQueryGen::new(params(seeds.warmup), w.value_skew());
    let warmup = (0..WARMUP_QUERIES).map(|_| interner.intern(gen.next_query(rel))).collect();
    let queries = interner.specs.iter().map(query_of).collect();
    Inputs { specs: interner.specs, queries, streams, warmup }
}

/// The base relation: `S=3, C=20, R=2`, uniform ranking values.
pub fn relation(w: Workload) -> Relation {
    SyntheticSpec {
        tuples: w.tuples(),
        selection_dims: 3,
        cardinality: 20,
        ranking_dims: 2,
        dist: DataDist::Uniform,
        seed: DATA_SEED,
    }
    .generate()
}

/// A directory removed, with everything in it, when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(path: PathBuf) -> std::io::Result<Self> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes in the directory's files.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
            .unwrap_or(0)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A served engine and the files behind it.
pub struct Served {
    pub engine: Engine,
    pub delta: Option<Arc<DeltaCube>>,
    pub metrics: Metrics,
    /// Dropped last: the engine's files live here.
    pub dir: TempDir,
}

/// Builds the relation and its cube files in `dir`, then opens them
/// behind an engine, ready for the first op.
pub fn setup(w: Workload, dir: TempDir) -> Result<Served, String> {
    let rel = relation(w);
    let metrics = Metrics::new();
    let err = |e: ranking_cube::storage::StorageError| format!("{} set-up: {e}", w.name());
    match w {
        Workload::ServeWarm | Workload::MixedRw => {
            let path = dir.path().join("base.cube");
            let disk = DiskSim::with_defaults();
            let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
            let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
            cube.save_to_with(&rtree, &path, PAGE, w.pool_pages()).map_err(err)?;
            let opts = DeltaOptions {
                pool_pages: w.pool_pages(),
                metrics: metrics.clone(),
                ..DeltaOptions::default()
            };
            let delta = Arc::new(DeltaCube::open(&path, rel.clone(), opts).map_err(err)?);
            let engine =
                Engine::with_disk_and_metrics(rel, DiskSim::with_defaults(), metrics.clone())
                    .with_delta(Arc::clone(&delta));
            Ok(Served { engine, delta: Some(delta), metrics, dir })
        }
        Workload::ShardedCold => {
            let cfg = ShardedCubeConfig {
                shards: 4,
                engine: ShardEngineConfig::Grid(GridCubeConfig::default()),
                pool_pages: w.pool_pages(),
                // The scatter runs in the client thread. With the default
                // (one worker thread per vCPU, spawned per open and per
                // pull round) `query_p50_us` was 1.8x slower on a 2-vCPU
                // VM and `ops_per_s` swung by 0.25-0.54 between runs.
                parallelism: 1,
            };
            let cube = ShardedCube::build_to(&rel, dir.path().join("cubeset.manifest"), &cfg)
                .map_err(err)?;
            let engine =
                Engine::with_disk_and_metrics(rel, DiskSim::with_defaults(), metrics.clone())
                    .with_prebuilt_sharded(cube);
            Ok(Served { engine, delta: None, metrics, dir })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(Seeds::derive(7), Seeds::derive(7));
        let s = Seeds::derive(7);
        assert_ne!(s.clients[0], s.clients[1], "clients get their own streams");
        assert_ne!(s.clients[0], s.warmup);
        assert_ne!(Seeds::derive(8).clients, s.clients);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let rel = relation(Workload::MixedRw);
        for w in [Workload::MixedRw, Workload::ServeWarm] {
            let a = generate(w, &Seeds::derive(3), &rel);
            let b = generate(w, &Seeds::derive(3), &rel);
            assert_eq!(a.streams, b.streams);
            assert_eq!(a.warmup, b.warmup);
            assert_eq!(format!("{:?}", a.specs), format!("{:?}", b.specs));
            let c = generate(w, &Seeds::derive(4), &rel);
            assert_ne!(a.streams, c.streams, "another seed, another stream");
            assert_eq!(a.streams.len(), w.clients());
        }
        let (r1, r2) = (relation(Workload::ServeWarm), relation(Workload::ServeWarm));
        assert_eq!(r1.ranking_column(0), r2.ranking_column(0));
        assert_eq!(r1.selection_column(2), r2.selection_column(2));
    }

    #[test]
    fn streams_follow_the_mix() {
        let rel = relation(Workload::MixedRw);
        let inputs = generate(Workload::MixedRw, &Seeds::derive(1), &rel);
        let ops = &inputs.streams[0];
        let count =
            |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64;
        let inserts = count(|o| matches!(o, Op::Insert { .. }));
        let deletes = count(|o| matches!(o, Op::Delete { .. }));
        let streamed = count(|o| matches!(o, Op::Query { streamed: true, .. }));
        assert!((inserts - 0.20).abs() < 0.02, "{inserts}");
        assert!((deletes - 0.05).abs() < 0.02, "{deletes}");
        assert!((streamed / (1.0 - inserts - deletes) - STREAMED_SHARE).abs() < 0.02);
        for spec in &inputs.specs {
            assert_eq!((spec.selection.len(), spec.ranking_dims.len(), spec.k), (2, 2, 10));
        }
    }
}
