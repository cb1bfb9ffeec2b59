//! The answer oracle: a brute-force top-k over the logical relation,
//! independent of every access path the engine serves from.
//!
//! It keeps the relation column-wise with per-(dimension, value) posting
//! lists, so one answer costs a scan of the tuples matching the first
//! condition rather than of the whole relation. Scores come from the
//! query's own ranking function, so a served answer must match tids and
//! score bit patterns exactly.

use std::collections::HashMap;

use ranking_cube::func::{Linear, RankFn};
use ranking_cube::table::workload::QuerySpec;
use ranking_cube::table::{Relation, Tid};

/// A top-k answer: `(tid, score)` in ascending `(score, tid)` order.
pub type Answer = Vec<(Tid, f64)>;

/// When each write was acknowledged, on one clock.
#[derive(Debug, Default)]
pub struct Acks {
    pub inserted: Vec<(Tid, u64)>,
    pub deleted: HashMap<Tid, u64>,
}

/// Every tuple ever allocated, with a liveness flag per tid.
#[derive(Debug, Clone)]
pub struct Oracle {
    sel_dims: usize,
    rank_dims: usize,
    sel: Vec<u32>,
    pts: Vec<f64>,
    alive: Vec<bool>,
    /// `postings[dim][value]`: tids carrying `value` on `dim`, ascending.
    postings: Vec<Vec<Vec<Tid>>>,
}

impl Oracle {
    /// The oracle over `rel`, tids `0..rel.len()` all live.
    pub fn from_relation(rel: &Relation) -> Self {
        let schema = rel.schema();
        let sel_dims = schema.num_selection();
        let postings = (0..sel_dims)
            .map(|d| vec![Vec::new(); schema.selection_dim(d).cardinality() as usize])
            .collect();
        let mut oracle = Self {
            sel_dims,
            rank_dims: schema.num_ranking(),
            sel: Vec::with_capacity(rel.len() * sel_dims),
            pts: Vec::with_capacity(rel.len() * schema.num_ranking()),
            alive: Vec::with_capacity(rel.len()),
            postings,
        };
        for tid in rel.tids() {
            let sel: Vec<u32> = (0..sel_dims).map(|d| rel.selection_value(tid, d)).collect();
            oracle.push(&sel, &rel.ranking_point(tid));
        }
        oracle
    }

    /// Tids allocated so far (live or deleted).
    pub fn allocated(&self) -> usize {
        self.alive.len()
    }

    /// Live tuples.
    pub fn live(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    fn push(&mut self, sel: &[u32], point: &[f64]) -> Tid {
        let tid = self.alive.len() as Tid;
        for (d, &v) in sel.iter().enumerate() {
            self.postings[d][v as usize].push(tid);
        }
        self.sel.extend_from_slice(sel);
        self.pts.extend_from_slice(point);
        self.alive.push(true);
        tid
    }

    /// Records an insert the engine acknowledged with `tid`. Tids are
    /// allocated densely, so `tid` must be the next one.
    pub fn insert(&mut self, tid: Tid, sel: &[u32], point: &[f64]) -> Result<(), String> {
        if tid as usize != self.allocated() {
            return Err(format!("insert acknowledged tid {tid}, expected {}", self.allocated()));
        }
        if sel.len() != self.sel_dims || point.len() != self.rank_dims {
            return Err(format!("insert of tid {tid} has the wrong arity"));
        }
        self.push(sel, point);
        Ok(())
    }

    /// Records an acknowledged delete.
    pub fn delete(&mut self, tid: Tid) -> Result<(), String> {
        match self.alive.get_mut(tid as usize) {
            Some(a) => {
                *a = false;
                Ok(())
            }
            None => Err(format!("delete of unallocated tid {tid}")),
        }
    }

    /// Live tuples in tid order: `(selection values, ranking point)`.
    pub fn live_tuples(&self) -> impl Iterator<Item = (&[u32], &[f64])> + '_ {
        (0..self.allocated()).filter(|&t| self.alive[t]).map(|t| {
            (
                &self.sel[t * self.sel_dims..][..self.sel_dims],
                &self.pts[t * self.rank_dims..][..self.rank_dims],
            )
        })
    }

    fn matches(&self, spec: &QuerySpec, tid: Tid) -> bool {
        let row = &self.sel[tid as usize * self.sel_dims..][..self.sel_dims];
        spec.selection.conds().iter().all(|&(d, v)| row[d] == v)
    }

    fn score(&self, func: &Linear, dims: &[usize], tid: Tid) -> f64 {
        let row = &self.pts[tid as usize * self.rank_dims..][..self.rank_dims];
        let proj: Vec<f64> = dims.iter().map(|&d| row[d]).collect();
        func.score(&proj)
    }

    /// The exact top-k answer over the live tuples.
    pub fn top_k(&self, spec: &QuerySpec) -> Answer {
        let func = Linear::new(spec.weights.clone());
        let scored = |tid: Tid| (tid, self.score(&func, &spec.ranking_dims, tid));
        let keep = |&tid: &Tid| self.alive[tid as usize] && self.matches(spec, tid);
        let mut all: Answer = match spec.selection.conds().first() {
            Some(&(d, v)) => {
                self.postings[d][v as usize].iter().copied().filter(keep).map(scored).collect()
            }
            None => (0..self.allocated() as Tid).filter(keep).map(scored).collect(),
        };
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(spec.k);
        all
    }

    /// Checks an answer served while other clients were writing: at most
    /// `k` distinct tids, in ascending score order, each an allocated
    /// tuple that satisfies the selection and carries exactly the score
    /// the ranking function gives it. Liveness is not checked, since a
    /// cursor may legitimately answer the state it opened on.
    pub fn check_shape(&self, spec: &QuerySpec, got: &[(Tid, f64)]) -> Result<(), String> {
        if got.len() > spec.k {
            return Err(format!("{} answers for top-{}", got.len(), spec.k));
        }
        let func = Linear::new(spec.weights.clone());
        let mut seen = std::collections::HashSet::new();
        for (i, &(tid, score)) in got.iter().enumerate() {
            if tid as usize >= self.allocated() {
                return Err(format!("answer {i}: tid {tid} was never allocated"));
            }
            if !seen.insert(tid) {
                return Err(format!("answer {i}: tid {tid} repeated"));
            }
            if !self.matches(spec, tid) {
                return Err(format!("answer {i}: tid {tid} fails the selection"));
            }
            let want = self.score(&func, &spec.ranking_dims, tid);
            if want.to_bits() != score.to_bits() {
                return Err(format!("answer {i}: tid {tid} scored {score}, expected {want}"));
            }
            if i > 0 && got[i - 1].1 > score {
                return Err(format!("answer {i}: scores out of order"));
            }
        }
        Ok(())
    }
}

impl Oracle {
    /// The visibility contract of an answer served in `start_ns..end_ns`
    /// while writes landed: a write acknowledged before the query started
    /// is visible to it. So the answer holds no tuple deleted before the
    /// start, and it holds every tuple inserted before the start (and not
    /// deleted before the end) that satisfies the selection and scores
    /// below the answer's last score — below anything, when the answer is
    /// short of `k`. The oracle must already hold every insert.
    pub fn check_visibility(
        &self,
        spec: &QuerySpec,
        got: &[(Tid, f64)],
        (start_ns, end_ns): (u64, u64),
        acks: &Acks,
    ) -> Result<(), String> {
        for &(tid, _) in got {
            if acks.deleted.get(&tid).is_some_and(|&at| at < start_ns) {
                return Err(format!("tid {tid} was deleted before the query started"));
            }
        }
        let bar = if got.len() < spec.k { f64::INFINITY } else { got[got.len() - 1].1 };
        let func = Linear::new(spec.weights.clone());
        for &(tid, at) in &acks.inserted {
            let deleted_during = acks.deleted.get(&tid).is_some_and(|&d| d < end_ns);
            if at >= start_ns || deleted_during || !self.matches(spec, tid) {
                continue;
            }
            if self.score(&func, &spec.ranking_dims, tid) < bar && got.iter().all(|a| a.0 != tid) {
                return Err(format!("tid {tid}, inserted before the query started, is missing"));
            }
        }
        Ok(())
    }
}

/// Byte-identity of two answers: same length, same tids, same score bit
/// patterns, same order.
pub fn check_exact(expected: &[(Tid, f64)], got: &[(Tid, f64)]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!("{} answers, expected {}", got.len(), expected.len()));
    }
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        if e.0 != g.0 || e.1.to_bits() != g.1.to_bits() {
            return Err(format!("answer {i}: got {g:?}, expected {e:?}"));
        }
    }
    Ok(())
}

/// Score bit patterns only — the identity that survives a rebuild which
/// renumbers tids.
pub fn check_scores(expected: &[(Tid, f64)], got: &[(Tid, f64)]) -> Result<(), String> {
    let bits = |a: &[(Tid, f64)]| a.iter().map(|&(_, s)| s.to_bits()).collect::<Vec<_>>();
    if bits(expected) != bits(got) {
        return Err(format!("scores {:?}, expected {:?}", got, expected));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranking_cube::table::{Dim, RelationBuilder, Schema, Selection};

    fn relation() -> Relation {
        let mut b = RelationBuilder::new(Schema::new(
            vec![Dim::cat("a", 3), Dim::cat("b", 2)],
            vec!["x", "y"],
        ));
        b.push(&[0, 0], &[0.5, 0.5]);
        b.push(&[0, 1], &[0.1, 0.2]);
        b.push(&[0, 0], &[0.3, 0.1]);
        b.push(&[1, 0], &[0.0, 0.0]);
        b.push(&[0, 0], &[0.9, 0.9]);
        b.finish()
    }

    fn spec(conds: Vec<(usize, u32)>, k: usize) -> QuerySpec {
        QuerySpec {
            selection: Selection::new(conds),
            ranking_dims: vec![0, 1],
            weights: vec![1.0, 2.0],
            k,
        }
    }

    #[test]
    fn top_k_is_the_brute_force_answer() {
        let o = Oracle::from_relation(&relation());
        let s = spec(vec![(0, 0), (1, 0)], 2);
        let want = vec![(2, 0.3 + 2.0 * 0.1), (0, 0.5 + 2.0 * 0.5)];
        assert_eq!(o.top_k(&s), want);
        assert!(check_exact(&want, &o.top_k(&s)).is_ok());
    }

    #[test]
    fn inserts_and_deletes_change_the_answer() {
        let mut o = Oracle::from_relation(&relation());
        let s = spec(vec![(0, 0)], 1);
        assert_eq!(o.top_k(&s)[0].0, 1);
        o.insert(5, &[0, 1], &[0.0, 0.01]).unwrap();
        assert_eq!(o.top_k(&s)[0].0, 5);
        o.delete(5).unwrap();
        o.delete(1).unwrap();
        assert_eq!(o.top_k(&s)[0].0, 2);
        assert_eq!(o.live(), 4);
        assert!(o.insert(9, &[0, 0], &[0.0, 0.0]).is_err(), "tids are dense");
        assert!(o.delete(99).is_err());
    }

    #[test]
    fn corrupted_answers_are_rejected() {
        let o = Oracle::from_relation(&relation());
        let s = spec(vec![(0, 0)], 3);
        let good = o.top_k(&s);
        assert!(check_exact(&good, &good).is_ok());
        assert!(o.check_shape(&s, &good).is_ok());

        // One flipped score bit.
        let mut bad = good.clone();
        bad[1].1 = f64::from_bits(bad[1].1.to_bits() ^ 1);
        assert!(check_exact(&good, &bad).is_err());
        assert!(check_scores(&good, &bad).is_err());
        assert!(o.check_shape(&s, &bad).is_err());

        // A swapped tid with a consistent score still fails identity.
        let mut swapped = good.clone();
        swapped[2] = (4, 0.9 + 2.0 * 0.9);
        assert!(check_exact(&good, &swapped).is_err());

        // A missing answer, a tuple outside the selection, a repeat and
        // an out-of-order pair each fail.
        assert!(check_exact(&good, &good[..2]).is_err());
        assert!(o.check_shape(&s, &[(3, 0.0)]).is_err());
        assert!(o.check_shape(&s, &[good[0], good[0]]).is_err());
        assert!(o.check_shape(&s, &[good[2], good[0]]).is_err());
        assert!(o.check_shape(&s, &[(77, 0.0)]).is_err());
    }

    #[test]
    fn writes_acknowledged_before_a_query_are_visible_to_it() {
        let mut o = Oracle::from_relation(&relation());
        let s = spec(vec![(0, 0)], 2);
        o.insert(5, &[0, 0], &[0.0, 0.0]).unwrap(); // scores 0: the new best
        let mut acks = Acks { inserted: vec![(5, 100)], ..Acks::default() };
        let with = vec![(5, 0.0), (1, 0.5)];
        let without = vec![(1, 0.5), (2, 0.5)];
        // Inserted before the query started: it must be there.
        assert!(o.check_visibility(&s, &with, (200, 300), &acks).is_ok());
        assert!(o.check_visibility(&s, &without, (200, 300), &acks).is_err());
        // Inserted while the query ran: either answer is fine.
        assert!(o.check_visibility(&s, &without, (50, 300), &acks).is_ok());
        assert!(o.check_visibility(&s, &with, (50, 300), &acks).is_ok());
        // Deleted before the query started: it must not be there.
        acks.deleted.insert(5, 150);
        assert!(o.check_visibility(&s, &with, (200, 300), &acks).is_err());
        assert!(o.check_visibility(&s, &without, (200, 300), &acks).is_ok());
        // Deleted while the query ran: either answer is fine.
        assert!(o.check_visibility(&s, &with, (120, 300), &acks).is_ok());
        assert!(o.check_visibility(&s, &without, (120, 300), &acks).is_ok());
    }
}
