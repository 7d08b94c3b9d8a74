//! Sparse LU basis factorization with Forrest–Tomlin updates.
//!
//! This is the basis representation behind the revised simplex. The basis
//! is held as `B = L·U`:
//!
//! * `L⁻¹` is a sequence of elementary eliminations ([`LOp`]): sparse
//!   column eliminations produced by factorization plus sparse row
//!   eliminations produced by Forrest–Tomlin updates. FTRAN applies them in
//!   order, BTRAN applies their transposes in reverse.
//! * `U` is sparse, column-wise, upper triangular with respect to a pair of
//!   permutation arrays mapping each logical basis *position* `j` onto its
//!   pivot row `rpos[j]` and physical column slot `cpos[j]`. The
//!   triangular-solve kernels live in [`privmech_linalg::sparse`]
//!   ([`sparse::solve_upper_ftran`] / [`sparse::solve_upper_btran`]).
//!
//! **Factorization** ([`LuFactors::refactorize`]) runs right-looking
//! Gaussian elimination with Markowitz pivot ordering: each step eliminates
//! the nonzero minimizing `(row_count − 1)·(col_count − 1)`, the classical
//! fill-in heuristic. Exact arithmetic needs no stability safeguard — any
//! exactly-nonzero pivot is sound — so the ordering is free to chase
//! sparsity alone, with deterministic tie-breaks (smaller column count,
//! then smaller row/column index) so repeated factorizations are
//! reproducible.
//!
//! **Update** ([`LuFactors::push_pivot`]): replacing the basis column at
//! position `p` turns column `p` of `U` into the *spike* `w = L⁻¹·a`.
//! [`LuFactors::ftran`] computes `w` on its way to `B⁻¹a` and keeps it, so
//! the update that follows the entering column's FTRAN receives its spike
//! for free, as Forrest and Tomlin store it (Math. Programming 2, 1972).
//! The update cyclically permutes positions `p..m−1` so the spike lands in
//! the last position, then eliminates the displaced pivot row's
//! off-diagonal entries with one sparse row elimination appended to `L` —
//! computed column-by-column, so no row-wise copy of `U` is ever
//! maintained. Per pivot this costs one scan of the columns right of `p`
//! and an `O(m − p)` permutation shift.
//!
//! **Refactorization trigger** ([`LuFactors::should_refactor`]): every
//! update appends to `L` and may fill `U`, so each FTRAN and BTRAN grows
//! more expensive until the next refactorization. With `R` the operation
//! count of the last refactorization (multiplier divisions plus elimination
//! multiply-subtracts, plus `m`), `k` the pivots since, and `S` the sum of
//! the factor nonzeros after each of those `k` updates, the next pivot's
//! FTRAN plus BTRAN costs about `2·nnz` while the cycle so far averaged
//! `(R + 2·S) / k` per pivot. The factors are rebuilt as soon as
//! `2·nnz·k > R + 2·S` — the classic minimum-average-cost reinversion rule,
//! which needs no tuning constant. Fill-free updates never fire it; the
//! pivot-count interval caps the cycle length regardless.
//!
//! **Why bit-identity with the dense tableau holds:**
//! FTRAN and BTRAN compute the mathematically exact entries of `B⁻¹a` /
//! `yᵀB⁻¹` over an exact field, and every solver decision is a function of
//! those exact values — never of the internal permutations or of how the
//! factorization is composed. When or how often it is refactorized therefore
//! cannot change any pivot choice; the contract is property-tested across
//! refactorization frequencies in `tests/properties.rs`.

use privmech_linalg::sparse::{self, SparseVec};
use privmech_linalg::Scalar;

use crate::model::LpError;

/// One elementary elimination of the `L` factor.
#[derive(Debug, Clone)]
enum LOp<T: Scalar> {
    /// Column elimination from factorization: forward
    /// `work[i] -= v·work[pivot]`, transposed `work[pivot] -= Σ v·work[i]`.
    Col {
        /// Pivot row the multipliers were taken against.
        pivot: usize,
        /// Multiplier rows and values.
        entries: Vec<(usize, T)>,
    },
    /// Row elimination from a Forrest–Tomlin update: forward
    /// `work[target] -= Σ v·work[i]`, transposed `work[i] -= v·work[target]`.
    Row {
        /// The spiked row being eliminated.
        target: usize,
        /// Elimination rows and multipliers.
        entries: Vec<(usize, T)>,
    },
}

impl<T: Scalar> LOp<T> {
    fn apply(&self, work: &mut [T]) {
        match self {
            LOp::Col { pivot, entries } => sparse::sub_scaled_scatter(work, *pivot, entries),
            LOp::Row { target, entries } => sparse::sub_dot_gather(work, *target, entries),
        }
    }

    fn apply_transposed(&self, work: &mut [T]) {
        match self {
            LOp::Col { pivot, entries } => sparse::sub_dot_gather(work, *pivot, entries),
            LOp::Row { target, entries } => sparse::sub_scaled_scatter(work, *target, entries),
        }
    }
}

/// A sparse LU factorization of the current simplex basis, maintained
/// across pivots by Forrest–Tomlin updates (see the module docs).
pub(crate) struct LuFactors<T: Scalar> {
    /// Elementary eliminations composing `L⁻¹`, in application order.
    ops: Vec<LOp<T>>,
    /// Columns of `U`, indexed by **basis position** (the driver's slot for
    /// the basic variable); each holds its exactly-nonzero `(row, value)`
    /// pairs including the diagonal.
    ucols: Vec<Vec<(usize, T)>>,
    /// Triangular order → pivot row of `U`'s diagonal.
    rpos: Vec<usize>,
    /// Triangular order → basis position. The Forrest–Tomlin cyclic shift
    /// permutes this triangular order; the driver-facing basis-position ↔
    /// row maps below stay fixed between refactorizations.
    cpos: Vec<usize>,
    /// Basis position → triangular order (inverse of `cpos`).
    cinv: Vec<usize>,
    /// Basis position → diagonal row of its `U` column (the row where that
    /// position's FTRAN component lives).
    slot_row: Vec<usize>,
    /// Row → basis position (inverse of `slot_row`).
    rinv: Vec<usize>,
    /// Total stored nonzeros across `L` and `U`.
    nnz: usize,
    /// Pivots applied since the last refactorization (`k` of the trigger).
    pivots_since_refactor: usize,
    /// Operation count of the last refactorization (`R` of the trigger).
    refactor_ops: usize,
    /// Sum of `nnz` after each update since the last refactorization (`S`
    /// of the trigger).
    update_nnz_sum: usize,
    /// The last FTRAN's `L⁻¹a`, in internal row space: the spike of the
    /// next update. Entries outside the last FTRAN's support are zero.
    spike: Vec<T>,
    /// Whether `spike` belongs to the current factors (set by FTRAN,
    /// cleared by an update or a refactorization).
    spike_armed: bool,
}

impl<T: Scalar> LuFactors<T> {
    /// The identity basis of dimension `m` (the two-phase start: every basis
    /// seed — slack or artificial — is a unit column).
    pub(crate) fn identity(m: usize) -> Self {
        LuFactors {
            ops: Vec::new(),
            ucols: (0..m).map(|r| vec![(r, T::one())]).collect(),
            rpos: (0..m).collect(),
            cpos: (0..m).collect(),
            cinv: (0..m).collect(),
            slot_row: (0..m).collect(),
            rinv: (0..m).collect(),
            nnz: m,
            pivots_since_refactor: 0,
            refactor_ops: m,
            update_nnz_sum: 0,
            spike: vec![T::zero(); m],
            spike_armed: false,
        }
    }

    /// Basis dimension.
    pub(crate) fn dim(&self) -> usize {
        self.rpos.len()
    }

    /// Internal row holding basis position `c` (for reading FTRAN results in
    /// position space: `work[lu.row_of(c)]`).
    pub(crate) fn row_of(&self, position: usize) -> usize {
        self.slot_row[position]
    }

    /// Basis position of internal row `r` (for walking an FTRAN result's
    /// nonzeros back to positions).
    pub(crate) fn position_of(&self, row: usize) -> usize {
        self.rinv[row]
    }

    /// FTRAN: overwrite the zeroed `work` vector with `B⁻¹a` for a sparse
    /// column `a` (apply `L⁻¹`, then solve with `U`). Read position-space
    /// entries through [`LuFactors::row_of`]. The partial result `L⁻¹a` is
    /// kept as the spike of a following [`LuFactors::push_pivot`].
    pub(crate) fn ftran(&mut self, work: &mut [T], column: SparseVec<'_, T>) {
        column.scatter_into(work);
        for op in &self.ops {
            op.apply(work);
        }
        for (s, w) in self.spike.iter_mut().zip(work.iter()) {
            if !w.is_exactly_zero() {
                s.clone_from(w);
            } else if !s.is_exactly_zero() {
                *s = T::zero();
            }
        }
        self.spike_armed = true;
        sparse::solve_upper_ftran(work, &self.ucols, &self.cpos, &self.rpos);
    }

    /// BTRAN of a unit position vector: overwrite the zeroed `work` vector
    /// with `e_pᵀB⁻¹` (the multipliers of tableau row `p`, indexed by
    /// internal row).
    pub(crate) fn btran_unit(&self, work: &mut [T], position: usize) {
        work[self.slot_row[position]] = T::one();
        self.btran_from(work, self.cinv[position]);
    }

    /// BTRAN of a dense position-space vector `v` (e.g. the basic cost
    /// vector): overwrite the zeroed `work` vector with `vᵀB⁻¹`.
    pub(crate) fn btran_dense(&self, work: &mut [T], position_values: &[T]) {
        let mut start = self.dim();
        for (c, v) in position_values.iter().enumerate() {
            if !v.is_exactly_zero() {
                work[self.slot_row[c]] = v.clone();
                start = start.min(self.cinv[c]);
            }
        }
        self.btran_from(work, start);
    }

    /// Shared BTRAN tail: solve `Uᵀ` ascending from `start_pos` (positions
    /// below the first nonzero input are exactly zero in the solution), then
    /// apply the transposed eliminations in reverse.
    fn btran_from(&self, work: &mut [T], start_pos: usize) {
        sparse::solve_upper_btran(work, &self.ucols, &self.cpos, &self.rpos, start_pos);
        for op in self.ops.iter().rev() {
            op.apply_transposed(work);
        }
    }

    /// Record a pivot at basis position `position` on the column of the
    /// immediately preceding [`LuFactors::ftran`], whose kept `L⁻¹a` is the
    /// spike: the Forrest–Tomlin update described in the module docs.
    ///
    /// # Panics
    /// Panics if no FTRAN has run since the last update or
    /// refactorization (there is no spike to insert), or if the update
    /// produces a zero diagonal (the ratio test guarantees a nonzero pivot
    /// element, which makes the updated basis nonsingular).
    pub(crate) fn push_pivot(&mut self, position: usize) {
        assert!(
            self.spike_armed,
            "Forrest–Tomlin update without a spike: FTRAN the entering column first"
        );
        self.spike_armed = false;
        let t = self.dim() - 1;
        // `position` is the driver's basis position == the slot of the `U`
        // column being replaced; `p` is where that column currently sits in
        // the triangular order. The basis-position ↔ row maps are untouched
        // below: the replacement column keeps its slot and its diagonal row.
        let slot = position;
        let p = self.cinv[slot];
        let r_p = self.slot_row[slot];

        // Retire the replaced column and cyclically shift the triangular
        // order p..t so the spike lands last and r_p becomes the last pivot
        // row.
        self.nnz -= self.ucols[slot].len();
        self.ucols[slot].clear();
        for q in p..t {
            self.rpos[q] = self.rpos[q + 1];
            self.cpos[q] = self.cpos[q + 1];
            self.cinv[self.cpos[q]] = q;
        }
        self.rpos[t] = r_p;
        self.cpos[t] = slot;
        self.cinv[slot] = t;

        // Eliminate the displaced row r_p from the columns now at positions
        // p..t−1, column by column: the running row value at position j is
        // the stored entry minus the already-computed multipliers folded
        // through this column, so one scan per column suffices and no
        // row-wise structure is needed (the Forrest–Tomlin trick).
        let mut multipliers: Vec<(usize, T)> = Vec::new();
        for j in p..t {
            let col = &mut self.ucols[self.cpos[j]];
            let r_j = self.rpos[j];
            let mut numerator = T::zero();
            let mut diag_idx = None;
            let mut stored = None;
            for (k, (i, v)) in col.iter().enumerate() {
                if *i == r_p {
                    numerator.add_assign_ref(v);
                    stored = Some(k);
                } else if *i == r_j {
                    diag_idx = Some(k);
                } else {
                    for (mr, mv) in &multipliers {
                        if mr == i {
                            numerator.sub_mul_assign(mv, v);
                            break;
                        }
                    }
                }
            }
            if !numerator.is_exactly_zero() {
                let k = diag_idx.expect("upper-triangular column missing its diagonal entry");
                multipliers.push((r_j, numerator.div_ref(&col[k].1)));
            }
            if let Some(k) = stored {
                self.nnz -= 1;
                col.swap_remove(k);
            }
        }

        // New last column: the spike, with its diagonal replaced by the
        // eliminated value d = w[r_p] − Σ λ_j·w[r_j].
        let mut d = std::mem::replace(&mut self.spike[r_p], T::zero());
        for (r_j, lambda) in &multipliers {
            d.sub_mul_assign(lambda, &self.spike[*r_j]);
        }
        assert!(
            !d.is_exactly_zero(),
            "Forrest–Tomlin update produced a singular basis"
        );
        let mut new_col: Vec<(usize, T)> = Vec::new();
        for (i, w_i) in self.spike.iter_mut().enumerate() {
            if i == r_p {
                continue;
            }
            if !w_i.is_exactly_zero() {
                new_col.push((i, std::mem::replace(w_i, T::zero())));
            }
        }
        new_col.push((r_p, d));
        self.nnz += new_col.len();
        self.ucols[slot] = new_col;

        if !multipliers.is_empty() {
            self.nnz += multipliers.len();
            self.ops.push(LOp::Row {
                target: r_p,
                entries: multipliers,
            });
        }
        self.pivots_since_refactor += 1;
        self.update_nnz_sum += self.nnz;
    }

    /// Whether a refactorization is due: the pivot-count `interval` has
    /// elapsed, or the next pivot's FTRAN plus BTRAN would cost more than
    /// the cycle's average per pivot so far, refactorization included (the
    /// amortized rule of the module docs). An interval of `usize::MAX`
    /// disables refactorization entirely.
    pub(crate) fn should_refactor(&self, interval: usize) -> bool {
        if interval == usize::MAX {
            return false;
        }
        let k = self.pivots_since_refactor;
        k >= interval || 2 * self.nnz * k > self.refactor_ops + 2 * self.update_nnz_sum
    }

    /// Factorize the basis whose position `c` holds the sparse column
    /// `columns(c)` from scratch: right-looking Markowitz elimination (see
    /// the module docs).
    ///
    /// Fails with [`LpError::Internal`] only if the basis is singular, which
    /// would indicate a solver bug — the simplex invariant keeps every basis
    /// nonsingular.
    pub(crate) fn refactorize<'a, F>(&mut self, columns: F) -> Result<(), LpError>
    where
        F: Fn(usize) -> SparseVec<'a, T>,
        T: 'a,
    {
        let m = self.dim();

        // Working copy: active entries per column slot (slot = basis
        // position of the column), kept sorted by row for deterministic
        // scans and merge updates.
        let mut active: Vec<Vec<(usize, T)>> = (0..m)
            .map(|c| {
                let mut col = columns(c).to_pairs();
                col.sort_by_key(|&(r, _)| r);
                col
            })
            .collect();
        // Entries frozen into U as their row is eliminated.
        let mut frozen: Vec<Vec<(usize, T)>> = vec![Vec::new(); m];
        // Row occupancy (may hold stale slots; validated before use) and
        // active-column counts per row for the Markowitz score.
        let mut row_occ: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut row_cnt = vec![0usize; m];
        for (c, col) in active.iter().enumerate() {
            for (r, _) in col {
                row_occ[*r].push(c);
                row_cnt[*r] += 1;
            }
        }
        let mut col_alive = vec![true; m];
        let mut row_alive = vec![true; m];

        let mut ops: Vec<LOp<T>> = Vec::new();
        let mut nnz = 0usize;
        // Multiplier divisions plus elimination multiply-subtracts, plus `m`.
        let mut work_ops = m;
        let mut rpos = vec![usize::MAX; m];
        let mut cpos = vec![usize::MAX; m];

        for step in 0..m {
            // Markowitz selection: minimize (row_cnt − 1)·(col_cnt − 1)
            // over all active nonzeros, deterministic tie-breaks.
            let mut best: Option<(usize, usize, usize, usize)> = None; // (score, cnt, r, c)
            for (c, col) in active.iter().enumerate() {
                if !col_alive[c] || col.is_empty() {
                    continue;
                }
                let cnt = col.len();
                for (r, _) in col {
                    let score = (row_cnt[*r] - 1) * (cnt - 1);
                    let key = (score, cnt, *r, c);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let Some((_, _, r, c)) = best else {
                return Err(LpError::Internal(
                    "singular basis during refactorization".to_string(),
                ));
            };

            // Freeze column c: diagonal at (r, pivot_value), multipliers
            // from the remaining active entries.
            let col = std::mem::take(&mut active[c]);
            col_alive[c] = false;
            row_alive[r] = false;
            rpos[step] = r;
            cpos[step] = c;
            let mut pivot_value = T::zero();
            let mut multipliers: Vec<(usize, T)> = Vec::new();
            for (i, v) in &col {
                if *i == r {
                    pivot_value = v.clone();
                } else {
                    row_cnt[*i] -= 1;
                }
            }
            debug_assert!(!pivot_value.is_exactly_zero());
            for (i, v) in &col {
                if *i != r {
                    multipliers.push((*i, v.div_ref(&pivot_value)));
                }
            }
            work_ops += multipliers.len();
            let mut ucol = std::mem::take(&mut frozen[c]);
            ucol.push((r, pivot_value));
            nnz += ucol.len();
            frozen[c] = ucol;

            // Update every other active column containing row r:
            // col' ← col' − u·l (merge of two row-sorted lists), freezing
            // the (r, u) entry into U.
            let mut targets = std::mem::take(&mut row_occ[r]);
            targets.sort_unstable();
            targets.dedup();
            for c_t in targets {
                if !col_alive[c_t] || c_t == c {
                    continue;
                }
                let Some(k) = active[c_t].iter().position(|(i, _)| *i == r) else {
                    continue; // stale occupancy entry
                };
                let u = active[c_t].remove(k);
                row_cnt[r] = row_cnt[r].saturating_sub(1);
                let factor = u.1.clone();
                frozen[c_t].push(u);
                work_ops += multipliers.len();
                // Merge: subtract factor·multipliers from the sorted column.
                let old = std::mem::take(&mut active[c_t]);
                let mut merged = Vec::with_capacity(old.len() + multipliers.len());
                let mut oi = old.into_iter().peekable();
                let mut mi = multipliers.iter().peekable();
                loop {
                    match (oi.peek(), mi.peek()) {
                        (Some((ri, _)), Some((rm, _))) if ri == rm => {
                            let (ri, mut val) = oi.next().expect("peeked");
                            let (_, l) = mi.next().expect("peeked");
                            val.sub_mul_assign(&factor, l);
                            if val.is_exactly_zero() {
                                // Exact cancellation: drop the entry.
                                row_cnt[ri] -= 1;
                            } else {
                                merged.push((ri, val));
                            }
                        }
                        (Some((ri, _)), Some((rm, _))) if ri < rm => {
                            merged.push(oi.next().expect("peeked"));
                        }
                        (Some(_), None) => {
                            merged.push(oi.next().expect("peeked"));
                        }
                        (_, Some(_)) => {
                            // Fill-in from the multiplier side.
                            let (rm, l) = mi.next().expect("peeked");
                            let mut val = T::zero();
                            val.sub_mul_assign(&factor, l);
                            if !val.is_exactly_zero() {
                                row_occ[*rm].push(c_t);
                                row_cnt[*rm] += 1;
                                merged.push((*rm, val));
                            }
                        }
                        (None, None) => break,
                    }
                }
                active[c_t] = merged;
            }

            if !multipliers.is_empty() {
                nnz += multipliers.len();
                ops.push(LOp::Col {
                    pivot: r,
                    entries: multipliers,
                });
            }
        }
        debug_assert!(row_alive.iter().all(|a| !a));

        self.ops = ops;
        self.ucols = frozen;
        self.cinv = vec![0; m];
        self.slot_row = vec![0; m];
        self.rinv = vec![0; m];
        for j in 0..m {
            self.cinv[cpos[j]] = j;
            self.slot_row[cpos[j]] = rpos[j];
            self.rinv[rpos[j]] = cpos[j];
        }
        self.rpos = rpos;
        self.cpos = cpos;
        self.nnz = nnz;
        self.pivots_since_refactor = 0;
        self.refactor_ops = work_ops;
        self.update_nnz_sum = 0;
        self.spike_armed = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_numerics::{rat, Rational};

    /// Owned index/value storage a [`SparseVec`] view can borrow from.
    type Col = (Vec<usize>, Vec<Rational>);

    fn sv(col: &Col) -> SparseVec<'_, Rational> {
        SparseVec::new(&col.0, &col.1)
    }

    fn columns() -> Vec<Col> {
        // B = [[2, 0, 1], [0, 1, 1], [0, 0, 3]] by columns.
        vec![
            (vec![0], vec![rat(2, 1)]),
            (vec![1], vec![rat(1, 1)]),
            (vec![0, 1, 2], vec![rat(1, 1), rat(1, 1), rat(3, 1)]),
        ]
    }

    fn ftran_dense(lu: &mut LuFactors<Rational>, col: &Col) -> Vec<Rational> {
        let m = lu.dim();
        let mut work = vec![Rational::zero(); m];
        lu.ftran(&mut work, sv(col));
        (0..m).map(|c| work[lu.row_of(c)].clone()).collect()
    }

    #[test]
    fn push_pivot_then_ftran_solves_against_the_updated_basis() {
        let cols = columns();
        let mut lu: LuFactors<Rational> = LuFactors::identity(3);
        let mut work = vec![Rational::zero(); 3];
        for (p, col) in cols.iter().enumerate() {
            sparse::clear(&mut work);
            lu.ftran(&mut work, sv(col));
            lu.push_pivot(p);
        }
        // B·(1,1,1) = (3, 2, 3)ᵀ.
        let rhs: Col = (vec![0, 1, 2], vec![rat(3, 1), rat(2, 1), rat(3, 1)]);
        let x = ftran_dense(&mut lu, &rhs);
        assert_eq!(x, vec![rat(1, 1), rat(1, 1), rat(1, 1)]);
    }

    #[test]
    fn refactorize_preserves_every_solve_exactly() {
        let cols = columns();
        let mut lu: LuFactors<Rational> = LuFactors::identity(3);
        let mut work = vec![Rational::zero(); 3];
        for (p, col) in cols.iter().enumerate() {
            sparse::clear(&mut work);
            lu.ftran(&mut work, sv(col));
            lu.push_pivot(p);
        }
        let rhs: Col = (vec![0, 1, 2], vec![rat(7, 1), rat(-2, 1), rat(5, 2)]);
        let before = ftran_dense(&mut lu, &rhs);
        let mut y_before = vec![Rational::zero(); 3];
        lu.btran_unit(&mut y_before, 2);

        lu.refactorize(|c| sv(&cols[c])).unwrap();
        let after = ftran_dense(&mut lu, &rhs);
        assert_eq!(before, after, "FTRAN must be factorization-independent");
        let mut y_after = vec![Rational::zero(); 3];
        lu.btran_unit(&mut y_after, 2);
        assert_eq!(y_before, y_after, "BTRAN must be factorization-independent");
    }

    #[test]
    fn updates_in_the_middle_of_the_basis_shift_positions() {
        // Pivot all three columns in, then replace the middle one with a
        // denser column and check solves against the new matrix.
        let cols = columns();
        let mut lu: LuFactors<Rational> = LuFactors::identity(3);
        let mut work = vec![Rational::zero(); 3];
        for (p, col) in cols.iter().enumerate() {
            sparse::clear(&mut work);
            lu.ftran(&mut work, sv(col));
            lu.push_pivot(p);
        }
        // Replace position 1 (column [0,1,0]ᵀ) with [1,2,1]ᵀ.
        let entering: Col = (vec![0, 1, 2], vec![rat(1, 1), rat(2, 1), rat(1, 1)]);
        sparse::clear(&mut work);
        lu.ftran(&mut work, sv(&entering));
        lu.push_pivot(1);
        // New B = [[2,1,1],[0,2,1],[0,1,3]] (columns 0, entering, 2).
        // Solve B x = (4, 3, 4)ᵀ: x = (1, 1, 1).
        let rhs: Col = (vec![0, 1, 2], vec![rat(4, 1), rat(3, 1), rat(4, 1)]);
        assert_eq!(
            ftran_dense(&mut lu, &rhs),
            vec![rat(1, 1), rat(1, 1), rat(1, 1)]
        );
        // BTRAN cross-check: yᵀB = (1, 0, 0) row recovery.
        let mut y = vec![Rational::zero(); 3];
        lu.btran_unit(&mut y, 0);
        // y solves Bᵀy = e_pos0; verify against all three basis columns.
        let dot = |col: &Col| -> Rational { sv(col).dot(&y) };
        assert_eq!(dot(&cols[0]), rat(1, 1));
        assert_eq!(dot(&entering), Rational::zero());
        assert_eq!(dot(&cols[2]), Rational::zero());
    }

    /// Basis position `j` of a dense, diagonally dominant `m × m` basis:
    /// `m + 1` on the diagonal, `1` elsewhere.
    fn dense_column(m: usize, j: usize) -> Col {
        let vals = (0..m)
            .map(|i| rat(if i == j { m as i64 + 1 } else { 1 }, 1))
            .collect();
        ((0..m).collect(), vals)
    }

    /// FTRAN `col` and pivot it in at `position`.
    fn pivot_in(lu: &mut LuFactors<Rational>, position: usize, col: &Col) {
        let mut work = vec![Rational::zero(); lu.dim()];
        lu.ftran(&mut work, sv(col));
        lu.push_pivot(position);
    }

    #[test]
    fn growth_trigger_and_interval_semantics() {
        let never = crate::SolverOptions::NEVER_REFACTOR;
        let lu: LuFactors<Rational> = LuFactors::identity(2);
        assert!(!lu.should_refactor(never));
        assert!(!lu.should_refactor(1), "no pivots yet");

        // Fill-free updates (a scaled unit column replacing a unit column)
        // leave every FTRAN and BTRAN as cheap as the fresh factors: the
        // amortized rule never fires, only the interval cap does.
        let m = 6;
        let mut lu: LuFactors<Rational> = LuFactors::identity(m);
        for k in 1..=40usize {
            let position = k % m;
            let unit: Col = (vec![position], vec![rat(k as i64 + 1, 3)]);
            pivot_in(&mut lu, position, &unit);
            assert!(!lu.should_refactor(64), "fill-free update {k} fired");
            assert!(!lu.should_refactor(never));
            assert!(lu.should_refactor(k), "interval cap at {k}");
            assert!(!lu.should_refactor(k + 1));
        }

        // Dense columns replacing unit columns grow L and U with every
        // update: the amortized rule fires long before the interval.
        let cols: Vec<Col> = (0..m).map(|j| dense_column(m, j)).collect();
        let mut lu: LuFactors<Rational> = LuFactors::identity(m);
        let mut fired_at = None;
        for (j, col) in cols.iter().enumerate() {
            pivot_in(&mut lu, j, col);
            assert!(!lu.should_refactor(never), "NEVER disables both triggers");
            if fired_at.is_none() && lu.should_refactor(64) {
                fired_at = Some(j + 1);
            }
        }
        let fired_at = fired_at.expect("fill growth must fire the amortized rule");
        assert!(fired_at < m, "fired after {fired_at} of {m} pivots");
        assert!(lu.should_refactor(64));
        lu.refactorize(|c| sv(&cols[c])).unwrap();
        assert!(!lu.should_refactor(1), "refactorization resets the counts");
        assert!(!lu.should_refactor(64));
    }

    #[test]
    #[should_panic(expected = "without a spike")]
    fn push_pivot_without_ftran_panics() {
        let mut lu: LuFactors<Rational> = LuFactors::identity(3);
        lu.push_pivot(0);
    }

    #[test]
    #[should_panic(expected = "without a spike")]
    fn push_pivot_after_refactorize_panics() {
        let cols = columns();
        let mut lu: LuFactors<Rational> = LuFactors::identity(3);
        let mut work = vec![Rational::zero(); 3];
        lu.ftran(&mut work, sv(&cols[2]));
        // The kept spike was L⁻¹a of the identity factors; the fresh
        // factors' L differs, so it must not be inserted.
        lu.refactorize(|c| sv(&cols[c])).unwrap();
        lu.push_pivot(2);
    }

    #[test]
    fn markowitz_keeps_a_banded_factorization_sparse() {
        // Arrow matrix: dense first column + diagonal. Eliminating the
        // diagonal columns first (which Markowitz does) produces zero
        // fill-in, while natural order would fill the whole matrix.
        let m = 8usize;
        let mut cols: Vec<Col> = Vec::new();
        let mut dense0: Col = ((0..m).collect(), (0..m).map(|_| rat(1, 1)).collect());
        dense0.1[0] = rat(5, 1);
        cols.push(dense0);
        for c in 1..m {
            cols.push((vec![0, c], vec![rat(1, 1), rat(2, 1)]));
        }
        let mut lu: LuFactors<Rational> = LuFactors::identity(m);
        lu.refactorize(|c| sv(&cols[c])).unwrap();
        // Fill-free bound: every original nonzero lands in L or U and nothing
        // else appears. Natural (column-0-first) order would instead fill the
        // entire m×m matrix.
        let original: usize = cols.iter().map(|c| c.0.len()).sum();
        assert!(
            lu.nnz <= original,
            "Markowitz ordering must avoid arrow-matrix fill-in (nnz = {}, original = {original})",
            lu.nnz
        );
        // And the factorization actually solves: B x = column sums → x = 1.
        let mut rhs_dense = vec![Rational::zero(); m];
        for col in &cols {
            for (r, v) in col.0.iter().zip(&col.1) {
                rhs_dense[*r].add_assign_ref(v);
            }
        }
        let mut rhs: Col = (Vec::new(), Vec::new());
        for (r, v) in rhs_dense.iter().enumerate() {
            if !v.is_exactly_zero() {
                rhs.0.push(r);
                rhs.1.push(v.clone());
            }
        }
        assert_eq!(ftran_dense(&mut lu, &rhs), vec![rat(1, 1); m]);
    }
}
