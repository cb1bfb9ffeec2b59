//! Incremental maintenance of the signature cube — Algorithm 2
//! (Section 4.2.5, Figures 4.5/4.6).
//!
//! An R-tree insertion/deletion yields a chain of [`PathUpdate`]s: tuples
//! whose root-to-slot paths changed (plus the new/removed tuple itself).
//! [`apply_path_updates`] accepts any concatenation of such chains — one
//! op, or a whole flush's worth in op order. It first collapses each
//! tuple's chain to its net change (first old path, last new path), then,
//! for every materialized cuboid, groups the net changes by affected cell,
//! loads that cell's signature (the one remaining whole-signature
//! materialization — queries go through the lazy per-node read path of
//! [`crate::sigcube`] instead), clears the old paths over the packed bit
//! words, sets the new paths, and writes the signature back — once per
//! affected cell per call, never touching unaffected cells.
//!
//! The write-back is patch-level copy-on-write
//! ([`SignatureCube::replace_cell`]): the rewritten cell's partials are
//! *appended* under fresh page ids, the replaced ones retired for a later
//! vacuum, and only the replaced partials' shared-node-cache entries are
//! invalidated — untouched cells keep their hot decoded nodes. On a
//! writable file-backed cube a following [`SignatureCube::commit`]
//! publishes the patch as the next generation while readers pinned on the
//! previous one keep streaming it unchanged (`rcube_storage::format`).

use std::collections::HashMap;

use rcube_index::rtree::PathUpdate;
use rcube_storage::DiskSim;
use rcube_table::Tid;

use crate::sigcube::SignatureCube;
use crate::signature::Signature;

/// One tuple's net path change across a batch of update chains.
struct NetUpdate<'a> {
    tid: Tid,
    old_path: Option<&'a [u16]>,
    new_path: Option<&'a [u16]>,
}

/// Collapses each tid's chain, in order, to (first `old_path`, last
/// `new_path`), dropping tuples that end where they started. Output is in
/// first-seen tid order.
fn collapse(updates: &[PathUpdate]) -> Vec<NetUpdate<'_>> {
    let mut net: Vec<NetUpdate<'_>> = Vec::new();
    let mut index: HashMap<Tid, usize> = HashMap::with_capacity(updates.len());
    for u in updates {
        let new_path = u.new_path.as_deref();
        match index.get(&u.tid) {
            Some(&i) => {
                debug_assert_eq!(
                    net[i].new_path,
                    u.old_path.as_deref(),
                    "tid {}: chain breaks (old path != previous new path)",
                    u.tid
                );
                net[i].new_path = new_path;
            }
            None => {
                index.insert(u.tid, net.len());
                net.push(NetUpdate { tid: u.tid, old_path: u.old_path.as_deref(), new_path });
            }
        }
    }
    net.retain(|n| n.old_path != n.new_path);
    net
}

/// Applies a batch of path updates to every materialized cuboid.
///
/// `updates` is any concatenation of per-op [`PathUpdate`] chains in the
/// order the R-tree produced them; a single op's chain is a batch of one.
/// Algorithm 2 clears every old path of a cell before setting any new one,
/// so a batch only needs each tuple's first old path (the one the stored
/// signature holds) and its last new path (the one the R-tree now holds):
/// final = initial − {first old paths} ∪ {last new paths}, and tuples the
/// batch does not mention keep their paths. Each affected cell is
/// therefore loaded and rewritten once per call.
///
/// `selection_values(tid)` supplies the tuple's selection-dimension values
/// (from the relation, including freshly inserted tuples); it is called
/// once per distinct tid. Returns the number of cell signatures rewritten.
pub fn apply_path_updates(
    cube: &mut SignatureCube,
    updates: &[PathUpdate],
    selection_values: impl Fn(Tid) -> Vec<u32>,
    disk: &DiskSim,
) -> usize {
    let net = collapse(updates);
    let sels: Vec<Vec<u32>> = net.iter().map(|n| selection_values(n.tid)).collect();
    let mut rewritten = 0;
    for dims in cube.cuboid_dims() {
        // Group net changes by the affected cell of this cuboid.
        let mut per_cell: HashMap<Vec<u32>, Vec<&NetUpdate<'_>>> = HashMap::new();
        for (n, sel) in net.iter().zip(&sels) {
            per_cell.entry(dims.iter().map(|&d| sel[d]).collect()).or_default().push(n);
        }
        for (vals, cell_updates) in per_cell {
            // Load (or create) the cell signature.
            let mut sig = match cube.cell_signature(&dims, &vals) {
                Some(stored) => stored.load_full(disk, cube.store()),
                None => Signature::empty(cube.fanout()),
            };
            // Clear every old path before setting any new one (Algorithm 2,
            // lines 6–7): updates may swap slot positions between tuples,
            // and a late clear would erase an earlier set.
            for old in cell_updates.iter().filter_map(|n| n.old_path) {
                sig.clear_path(old);
            }
            for new in cell_updates.iter().filter_map(|n| n.new_path) {
                sig.set_path(new);
            }
            cube.replace_cell(&dims, vals, &sig, disk);
            rewritten += 1;
        }
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_index::rtree::{RTree, RTreeConfig};
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::Relation;

    use crate::sigcube::SignatureCubeConfig;

    /// End-to-end invariant: after incremental inserts, every cell
    /// signature equals what a from-scratch rebuild would produce.
    #[test]
    fn incremental_equals_rebuild() {
        let full = SyntheticSpec { tuples: 600, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(500);
        let disk = DiskSim::with_defaults();
        let mut rtree = RTree::over_relation(&disk, &base, &[], RTreeConfig::small(6));
        let mut cube = SignatureCube::build(&base, &rtree, &disk, SignatureCubeConfig::default());

        // Insert tuples 500..600 one at a time, maintaining incrementally.
        for tid in 500..600u32 {
            let point = full.ranking_point(tid);
            let updates = rtree.insert(&disk, tid, point);
            apply_path_updates(
                &mut cube,
                &updates,
                |t| {
                    (0..full.schema().num_selection()).map(|d| full.selection_value(t, d)).collect()
                },
                &disk,
            );
        }

        // Rebuild from scratch over the same (mutated) R-tree and compare.
        let rebuilt = SignatureCube::build(&full, &rtree, &disk, SignatureCubeConfig::default());
        assert_cubes_equal(&full, &rtree, &cube, &rebuilt, &disk);
    }

    #[test]
    fn deletion_maintenance_matches_rebuild() {
        let full = SyntheticSpec { tuples: 300, cardinality: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let mut rtree = RTree::over_relation(&disk, &full, &[], RTreeConfig::small(6));
        let mut cube = SignatureCube::build(&full, &rtree, &disk, SignatureCubeConfig::default());

        for tid in 0..50u32 {
            let updates = rtree.delete(&disk, tid);
            apply_path_updates(
                &mut cube,
                &updates,
                |t| {
                    (0..full.schema().num_selection()).map(|d| full.selection_value(t, d)).collect()
                },
                &disk,
            );
        }
        let rebuilt = build_over_remaining(&full, &rtree, &disk);
        assert_cubes_equal(&full, &rtree, &cube, &rebuilt, &disk);
    }

    fn build_over_remaining(rel: &Relation, rtree: &RTree, disk: &DiskSim) -> SignatureCube {
        // SignatureCube::build reads paths from the R-tree, which no longer
        // contains the deleted tuples, so a direct rebuild suffices.
        SignatureCube::build(rel, rtree, disk, SignatureCubeConfig::default())
    }

    fn assert_cubes_equal(
        rel: &Relation,
        rtree: &RTree,
        a: &SignatureCube,
        b: &SignatureCube,
        disk: &DiskSim,
    ) {
        for d in 0..rel.schema().num_selection() {
            let card = rel.schema().selection_dim(d).cardinality();
            for v in 0..card {
                let sa = a.cell_signature(&[d], &[v]).map(|s| s.load_full(disk, a.store()));
                let sb = b.cell_signature(&[d], &[v]).map(|s| s.load_full(disk, b.store()));
                match (sa, sb) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        let mut px = x.paths();
                        let mut py = y.paths();
                        px.sort();
                        py.sort();
                        assert_eq!(px, py, "cell ({d}={v}) paths diverged");
                    }
                    (x, y) => panic!(
                        "cell ({d}={v}) presence diverged: incremental={} rebuilt={}",
                        x.is_some(),
                        y.is_some()
                    ),
                }
            }
        }
        let _ = rtree;
    }

    /// The batch contract: one call over the concatenation of many ops'
    /// chains ≡ applying each op's chain in turn ≡ a from-scratch build,
    /// while rewriting each affected cell at most once. Fanout 4 makes
    /// leaves split and the root grow, so tuples move repeatedly within
    /// the batch.
    #[test]
    fn concatenated_chains_equal_per_op_and_rebuild() {
        let full = SyntheticSpec { tuples: 160, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(8);
        let disk = DiskSim::with_defaults();
        let mut rtree = RTree::over_relation(&disk, &base, &[], RTreeConfig::small(4));
        let config = SignatureCubeConfig::default();
        let mut per_op = SignatureCube::build(&base, &rtree, &disk, config.clone());
        let mut batched = SignatureCube::build(&base, &rtree, &disk, config);
        let sel = |t: u32| -> Vec<u32> {
            (0..full.schema().num_selection()).map(|d| full.selection_value(t, d)).collect()
        };
        let depth_before = rtree.tuple_path(0).unwrap().len();

        // Interleaved inserts and deletes (of base tuples and of tuples
        // inserted earlier in the batch), one R-tree op per chain.
        let mut chains: Vec<Vec<PathUpdate>> = Vec::new();
        for (i, tid) in (8..160u32).enumerate() {
            chains.push(rtree.insert(&disk, tid, full.ranking_point(tid)));
            if i % 4 == 3 {
                chains.push(rtree.delete(&disk, (i / 4 * 3) as u32));
            }
        }
        // A tuple moved by an earlier split, then deleted.
        let moved = chains
            .iter()
            .flatten()
            .find(|u| {
                u.old_path.is_some() && u.new_path.is_some() && rtree.tuple_path(u.tid).is_some()
            })
            .map(|u| u.tid)
            .expect("splits moved some tuple");
        chains.push(rtree.delete(&disk, moved));
        // Replay-style delete-then-insert of one live tuple.
        let replayed = 1;
        chains.push(rtree.delete(&disk, replayed));
        chains.push(rtree.insert(&disk, replayed, full.ranking_point(replayed)));

        // The batch covers every case the collapse must get right.
        let batch: Vec<PathUpdate> = chains.iter().flatten().cloned().collect();
        let chain_of = |tid: u32| batch.iter().filter(move |u| u.tid == tid);
        assert!(rtree.tuple_path(3).is_none() && rtree.tuple_path(moved).is_none());
        assert!(rtree.tuple_path(159).unwrap().len() > depth_before, "the root grew");
        assert!(
            (8..160u32).any(|t| {
                chain_of(t).next().is_some_and(|u| u.old_path.is_none())
                    && chain_of(t).skip(1).any(|u| u.new_path.is_some())
            }),
            "some tuple was inserted and then moved by a later split"
        );
        assert!(chain_of(moved).count() >= 2, "tuple {moved} moved before its delete");
        assert!(chain_of(replayed).any(|u| u.new_path.is_none()));

        let mut per_op_rewritten = 0;
        for chain in &chains {
            per_op_rewritten += apply_path_updates(&mut per_op, chain, sel, &disk);
        }
        let batch_rewritten = apply_path_updates(&mut batched, &batch, sel, &disk);

        let rebuilt = build_over_remaining(&full, &rtree, &disk);
        assert_cubes_equal(&full, &rtree, &batched, &per_op, &disk);
        assert_cubes_equal(&full, &rtree, &batched, &rebuilt, &disk);

        let tids: std::collections::HashSet<u32> = batch.iter().map(|u| u.tid).collect();
        let affected_cells: usize = (0..full.schema().num_selection())
            .map(|d| {
                tids.iter()
                    .map(|&t| full.selection_value(t, d))
                    .collect::<std::collections::HashSet<_>>()
                    .len()
            })
            .sum();
        assert!(
            batch_rewritten <= affected_cells,
            "batched call rewrote {batch_rewritten} cells, only {affected_cells} affected"
        );
        assert!(batch_rewritten < per_op_rewritten, "the batch folds repeated rewrites");
    }

    #[test]
    fn update_touches_only_affected_cells() {
        let full = SyntheticSpec { tuples: 201, cardinality: 10, ..Default::default() }.generate();
        let base = full.prefix(200);
        let disk = DiskSim::with_defaults();
        let mut rtree = RTree::over_relation(&disk, &base, &[], RTreeConfig::small(32));
        let mut cube = SignatureCube::build(&base, &rtree, &disk, SignatureCubeConfig::default());
        // A no-split insert updates exactly one cell per cuboid.
        let updates = rtree.insert(&disk, 200, full.ranking_point(200));
        if updates.len() == 1 {
            let rewritten = apply_path_updates(
                &mut cube,
                &updates,
                |t| {
                    (0..full.schema().num_selection()).map(|d| full.selection_value(t, d)).collect()
                },
                &disk,
            );
            assert_eq!(rewritten, full.schema().num_selection());
        }
    }
}
