//! Relations, schemas and data/workload generators.
//!
//! The thesis' data model (Section 1.2.1): a relation `R` with categorical
//! *selection dimensions* `A1..AS` (a.k.a. Boolean dimensions) and real-valued
//! *ranking dimensions* `N1..NR` over `[0, 1]`. Tuples are addressed by
//! `tid`. Queries select on a subset of the `Ai` and rank by an ad-hoc
//! function over a subset of the `Ni`.
//!
//! The [`gen`] module reproduces the synthetic data sets of Tables 3.8/4.4
//! (uniform / correlated / anti-correlated distributions, parameterised by
//! `T`, `C`, `S`, `R`) and a statistical surrogate of the UCI Forest
//! CoverType set used as "real data" (the real file is not available
//! offline; the surrogate keeps the cardinality mix and value skew the
//! experiments depend on). The [`workload`] module generates the random
//! query batches of Table 3.9.

pub mod gen;
pub mod relation;
pub mod schema;
pub mod selection;
pub mod workload;

pub use relation::{Relation, RelationBuilder, Tid};
pub use schema::{Dim, Schema};
pub use selection::Selection;
pub use workload::{
    MixedWorkloadGen, MixedWorkloadParams, QueryGen, QuerySpec, WorkloadOp, WorkloadParams,
};
