//! Sparse kernels for the revised simplex: the CSR constraint store, borrowed
//! sparse-vector views, and the elimination and triangular-solve steps of
//! the sparse LU basis factorization.
//!
//! The revised simplex (see `privmech-lp`'s `SOLVER.md`) keeps the basis as
//! `B = L·U`. Solving with the basis reduces to applying `L`'s elementary
//! eliminations and one triangular solve with `U` (FTRAN), or their
//! transposes in reverse (BTRAN), against a dense work vector. These kernels
//! are the innermost loops of that solver, placed next to [`crate::kernels`]
//! so both tableau forms share one home for their hot paths. Every kernel
//! skips the arithmetic that exact zeros make vacuous, the dominant case on
//! the paper's sparse LPs.

use crate::scalar::Scalar;

/// A borrowed sparse vector: parallel index/value slices, indices strictly
/// increasing, no stored zeros. This is the view type handed out by
/// [`Csr::row`] and consumed by the revised simplex's FTRAN/refactorization
/// interfaces — a `Copy` pair of slices, so passing one is free.
#[derive(Debug, Clone, Copy)]
pub struct SparseVec<'a, T> {
    idx: &'a [usize],
    val: &'a [T],
}

impl<'a, T: Scalar> SparseVec<'a, T> {
    /// View over parallel index/value slices.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn new(idx: &'a [usize], val: &'a [T]) -> Self {
        assert_eq!(idx.len(), val.len(), "index/value slices must be parallel");
        SparseVec { idx, val }
    }

    /// The index slice.
    #[must_use]
    pub fn indices(&self) -> &'a [usize] {
        self.idx
    }

    /// The value slice, parallel to [`SparseVec::indices`].
    #[must_use]
    pub fn values(&self) -> &'a [T] {
        self.val
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the vector stores no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Iterate the `(index, value)` entries in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a T)> + 'a {
        self.idx.iter().copied().zip(self.val.iter())
    }

    /// Owned `(index, value)` pairs (for callers that need to re-sort or
    /// mutate a working copy, e.g. the LU refactorization).
    #[must_use]
    pub fn to_pairs(&self) -> Vec<(usize, T)> {
        self.iter().map(|(i, v)| (i, v.clone())).collect()
    }

    /// Scatter the entries into the (all-zero) dense `work` vector — the
    /// view-typed twin of [`scatter`].
    ///
    /// # Panics
    /// Panics if an index is out of bounds for `work`.
    pub fn scatter_into(&self, work: &mut [T]) {
        for (i, v) in self.iter() {
            work[i] = v.clone();
        }
    }

    /// Sparse dot product `Σ val · dense[idx]`, skipping terms whose dense
    /// operand is exactly zero.
    ///
    /// # Panics
    /// Panics if an index is out of bounds for `dense`.
    #[must_use]
    pub fn dot(&self, dense: &[T]) -> T {
        let mut acc = T::zero();
        for (i, v) in self.iter() {
            if !dense[i].is_exactly_zero() {
                acc.add_mul_assign(v, &dense[i]);
            }
        }
        acc
    }
}

/// A compressed-sparse-row matrix: the constraint store behind the LP
/// solver's standard form (`privmech-lp`'s `SOLVER.md` § CSR constraint
/// store).
///
/// Layout: the classic three-array CSR. `row_ptr` has one entry per row plus
/// a final sentinel; row `i`'s entries live at `row_ptr[i]..row_ptr[i + 1]`
/// in the parallel `col_idx`/`values` arrays. Invariants, enforced by every
/// constructor and checkable via [`Csr::check_invariants`]:
///
/// 1. `row_ptr[0] == 0`, `row_ptr` is monotone non-decreasing (strictly
///    increasing across non-empty rows), and its last entry equals the
///    stored-entry count;
/// 2. within each row, column indices are **strictly increasing** and less
///    than [`Csr::num_cols`];
/// 3. no stored value is exactly zero.
///
/// Rows therefore iterate in column order and columns of the
/// [`Csr::transpose`] iterate in row order, which is exactly the iteration
/// order the pivot-identity contract of the LP solver depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T: Scalar> {
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// An empty matrix with `n_rows` rows and `n_cols` columns.
    #[must_use]
    pub fn empty(n_rows: usize, n_cols: usize) -> Self {
        Csr {
            n_cols,
            row_ptr: vec![0; n_rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from per-row `(column, value)` entry lists. Entries within a row
    /// may arrive unsorted and may repeat a column: they are stably sorted by
    /// column, duplicates are summed **in arrival order** (matching what a
    /// dense accumulation row would compute, bit for bit on `f64`), and
    /// entries whose final value is exactly zero are dropped.
    ///
    /// # Panics
    /// Panics if a column index is out of bounds.
    #[must_use]
    pub fn from_rows(n_cols: usize, rows: Vec<Vec<(usize, T)>>) -> Self {
        let mut out = Csr {
            n_cols,
            row_ptr: Vec::with_capacity(rows.len() + 1),
            col_idx: Vec::new(),
            values: Vec::new(),
        };
        out.row_ptr.push(0);
        for mut row in rows {
            row.sort_by_key(|&(c, _)| c);
            let mut iter = row.into_iter();
            if let Some((mut col, mut acc)) = iter.next() {
                assert!(
                    col < n_cols,
                    "column index {col} out of bounds ({n_cols} columns)"
                );
                for (c, v) in iter {
                    assert!(
                        c < n_cols,
                        "column index {c} out of bounds ({n_cols} columns)"
                    );
                    if c == col {
                        acc.add_assign_ref(&v);
                    } else {
                        if !acc.is_exactly_zero() {
                            out.col_idx.push(col);
                            out.values.push(acc);
                        }
                        col = c;
                        acc = v;
                    }
                }
                if !acc.is_exactly_zero() {
                    out.col_idx.push(col);
                    out.values.push(acc);
                }
            }
            out.row_ptr.push(out.col_idx.len());
        }
        debug_assert!(out.check_invariants().is_ok());
        out
    }

    /// Build from dense rows, dropping exactly-zero cells.
    ///
    /// # Panics
    /// Panics if a row's length differs from `n_cols`.
    #[must_use]
    pub fn from_dense(n_cols: usize, rows: &[Vec<T>]) -> Self {
        let mut out = Csr {
            n_cols,
            row_ptr: Vec::with_capacity(rows.len() + 1),
            col_idx: Vec::new(),
            values: Vec::new(),
        };
        out.row_ptr.push(0);
        for row in rows {
            assert_eq!(row.len(), n_cols, "dense row length must equal n_cols");
            for (c, v) in row.iter().enumerate() {
                if !v.is_exactly_zero() {
                    out.col_idx.push(c);
                    out.values.push(v.clone());
                }
            }
            out.row_ptr.push(out.col_idx.len());
        }
        debug_assert!(out.check_invariants().is_ok());
        out
    }

    /// Materialize as dense rows (zeros included) — the oracle direction of
    /// the dense ↔ CSR round-trip, and what the dense-tableau solver scatters
    /// its initial tableau from.
    #[must_use]
    pub fn to_dense(&self) -> Vec<Vec<T>> {
        (0..self.num_rows())
            .map(|i| {
                let mut row = vec![T::zero(); self.n_cols];
                for (c, v) in self.row(i).iter() {
                    row[c] = v.clone();
                }
                row
            })
            .collect()
    }

    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    #[must_use]
    pub fn num_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored (exactly nonzero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row `i` as a borrowed sparse vector (column indices strictly
    /// increasing).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn row(&self, i: usize) -> SparseVec<'_, T> {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        SparseVec {
            idx: &self.col_idx[lo..hi],
            val: &self.values[lo..hi],
        }
    }

    /// The row-pointer array (`num_rows + 1` entries, last == [`Csr::nnz`]).
    #[must_use]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array, parallel to [`Csr::csr_values`].
    #[must_use]
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// The stored values in row-major order.
    #[must_use]
    pub fn csr_values(&self) -> &[T] {
        &self.values
    }

    /// The transpose, built by a counting pass: entry order within each
    /// transposed row follows the original **row** order, so the transpose of
    /// a CSR matrix is the CSC view of the same matrix (columns iterate in
    /// row order), with all invariants holding by construction.
    #[must_use]
    pub fn transpose(&self) -> Csr<T> {
        let m = self.num_rows();
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for k in 0..self.n_cols {
            counts[k + 1] += counts[k];
        }
        let row_ptr = counts.clone();
        let nnz = self.nnz();
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![T::zero(); nnz];
        for i in 0..m {
            for (c, v) in self.row(i).iter() {
                let slot = counts[c];
                counts[c] += 1;
                col_idx[slot] = i;
                values[slot] = v.clone();
            }
        }
        let out = Csr {
            n_cols: m,
            row_ptr,
            col_idx,
            values,
        };
        debug_assert!(out.check_invariants().is_ok());
        out
    }

    /// Verify every structural invariant (see the type docs), returning a
    /// description of the first violation. Constructors `debug_assert` this;
    /// the CSR invariant test suite calls it directly.
    ///
    /// # Errors
    /// Returns a human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.row_ptr.first() != Some(&0) {
            return Err("row_ptr must start at 0".to_string());
        }
        if *self.row_ptr.last().expect("row_ptr is never empty") != self.col_idx.len() {
            return Err("row_ptr must end at nnz".to_string());
        }
        if self.col_idx.len() != self.values.len() {
            return Err("col_idx and values must be parallel".to_string());
        }
        for w in self.row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(format!("row_ptr not monotone: {} > {}", w[0], w[1]));
            }
        }
        for i in 0..self.num_rows() {
            let cols = &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]];
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!(
                        "row {i}: column indices not strictly increasing ({} then {})",
                        w[0], w[1]
                    ));
                }
            }
            if let Some(&last) = cols.last() {
                if last >= self.n_cols {
                    return Err(format!("row {i}: column {last} out of bounds"));
                }
            }
        }
        for (k, v) in self.values.iter().enumerate() {
            if v.is_exactly_zero() {
                return Err(format!("stored explicit zero at entry {k}"));
            }
        }
        Ok(())
    }
}

/// Scatter sparse `entries` into the (all-zero) dense `work` vector.
///
/// # Panics
/// Panics if an index is out of bounds for `work`.
pub fn scatter<T: Scalar>(work: &mut [T], entries: &[(usize, T)]) {
    for (i, v) in entries {
        work[*i] = v.clone();
    }
}

/// Reset `work` to all zeros (the companion of [`scatter`] for reusing one
/// dense scratch vector across FTRAN/BTRAN calls without reallocating).
pub fn clear<T: Scalar>(work: &mut [T]) {
    for w in work.iter_mut() {
        *w = T::zero();
    }
}

// ---------------------------------------------------------------------------
// Sparse rank-one elimination kernels (LU factorization).
//
// An LU factorization's `L` part is a product of elementary eliminations,
// each the identity plus one sparse row or column of multipliers. Applying
// `L⁻¹` (FTRAN) or `L⁻ᵀ` (BTRAN) to a work vector reduces to the two
// kernels below: a *scatter* (one source entry updates many targets) and a
// *gather* (many source entries update one target). A column elimination is
// a scatter forward and a gather transposed; a Forrest–Tomlin row
// elimination is the exact mirror.
// ---------------------------------------------------------------------------

/// Scatter-shaped elimination step: `work[i] -= v · work[anchor]` for every
/// `(i, v)` in `entries`. When `work[anchor]` is exactly zero the whole step
/// is a no-op and no arithmetic runs — the sparsity shortcut that makes
/// triangular solves cheap on the paper's LPs.
///
/// # Panics
/// Panics if an index is out of bounds for `work`.
pub fn sub_scaled_scatter<T: Scalar>(work: &mut [T], anchor: usize, entries: &[(usize, T)]) {
    if work[anchor].is_exactly_zero() {
        return;
    }
    // The anchor is moved out so the borrow checker allows in-place updates
    // of the sibling entries; it is written back unchanged.
    let z = std::mem::replace(&mut work[anchor], T::zero());
    for (i, v) in entries {
        work[*i].sub_mul_assign(v, &z);
    }
    work[anchor] = z;
}

/// Gather-shaped elimination step: `work[anchor] -= Σ v · work[i]` over
/// `entries`, skipping terms whose `work[i]` is exactly zero.
///
/// # Panics
/// Panics if an index is out of bounds for `work`.
pub fn sub_dot_gather<T: Scalar>(work: &mut [T], anchor: usize, entries: &[(usize, T)]) {
    // The anchor is moved out so the borrow checker allows reading the
    // sibling entries while accumulating into it (an elimination never lists
    // its own anchor among its entries).
    let mut acc = std::mem::replace(&mut work[anchor], T::zero());
    for (i, v) in entries {
        if !work[*i].is_exactly_zero() {
            acc.sub_mul_assign(v, &work[*i]);
        }
    }
    work[anchor] = acc;
}

// ---------------------------------------------------------------------------
// Column-wise sparse upper-triangular solves (LU factorization).
//
// The `U` factor is stored column-wise with two permutation arrays mapping
// logical basis *positions* onto physical row and column indices:
// `cpos[j]` is the column id holding position `j`, `rpos[j]` its diagonal
// (pivot) row. Upper triangularity means every entry of column `cpos[j]`
// sits in a row whose position is at most `j`. Both solves below need only
// column access, which is what lets Forrest–Tomlin updates avoid
// maintaining a row-wise copy of `U`.
// ---------------------------------------------------------------------------

/// FTRAN tail: in-place solve `U x = w` for a column-wise upper-triangular
/// `U` (see the section comment for the layout). On return `work[rpos[j]]`
/// holds the solution entry of position `j`. Positions whose running value
/// is exactly zero are skipped entirely.
///
/// # Panics
/// Panics if a diagonal entry is missing or indices are out of bounds.
pub fn solve_upper_ftran<T: Scalar>(
    work: &mut [T],
    ucols: &[Vec<(usize, T)>],
    cpos: &[usize],
    rpos: &[usize],
) {
    for j in (0..cpos.len()).rev() {
        let r = rpos[j];
        if work[r].is_exactly_zero() {
            continue;
        }
        let col = &ucols[cpos[j]];
        let diag = &col
            .iter()
            .find(|(i, _)| *i == r)
            .expect("upper-triangular column missing its diagonal entry")
            .1;
        work[r].div_assign_ref(diag);
        let x_j = std::mem::replace(&mut work[r], T::zero());
        for (i, v) in col {
            if *i != r {
                work[*i].sub_mul_assign(v, &x_j);
            }
        }
        work[r] = x_j;
    }
}

/// BTRAN head: in-place solve `Uᵀ z = c` for a column-wise upper-triangular
/// `U`, with the input scattered as `work[rpos[j]] = c_j`. Forward
/// substitution over positions ascending from `start_pos` (for a unit input
/// at position `p`, every solution entry below `p` is zero, so callers pass
/// `start_pos = p` to skip the leading prefix).
///
/// # Panics
/// Panics if a diagonal entry is missing or indices are out of bounds.
pub fn solve_upper_btran<T: Scalar>(
    work: &mut [T],
    ucols: &[Vec<(usize, T)>],
    cpos: &[usize],
    rpos: &[usize],
    start_pos: usize,
) {
    for j in start_pos..cpos.len() {
        let r = rpos[j];
        let col = &ucols[cpos[j]];
        let mut acc = std::mem::replace(&mut work[r], T::zero());
        let mut diag = None;
        for (i, v) in col {
            if *i == r {
                diag = Some(v);
            } else if !work[*i].is_exactly_zero() {
                acc.sub_mul_assign(v, &work[*i]);
            }
        }
        let diag = diag.expect("upper-triangular column missing its diagonal entry");
        work[r] = if acc.is_exactly_zero() {
            T::zero()
        } else {
            acc.div_ref(diag)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_numerics::{rat, Rational};

    #[test]
    fn scatter_and_gather_kernels_are_transposes() {
        // E = I - l·e₀ᵀ with l over rows {1, 2}: forward scatter from row 0,
        // transposed gather into row 0.
        let entries = vec![(1, rat(1, 2)), (2, rat(-3, 1))];
        let mut w = vec![rat(4, 1), rat(1, 1), rat(2, 1)];
        sub_scaled_scatter(&mut w, 0, &entries);
        assert_eq!(w, vec![rat(4, 1), rat(-1, 1), rat(14, 1)]);
        let mut z = vec![rat(4, 1), rat(1, 1), rat(2, 1)];
        sub_dot_gather(&mut z, 0, &entries);
        // z0 = 4 - (1/2·1 + (-3)·2) = 4 + 11/2 = 19/2.
        assert_eq!(z, vec![rat(19, 2), rat(1, 1), rat(2, 1)]);
        // Zero anchor: scatter is a no-op.
        let mut w = vec![Rational::zero(), rat(1, 1), rat(2, 1)];
        let before = w.clone();
        sub_scaled_scatter(&mut w, 0, &entries);
        assert_eq!(w, before);
    }

    #[test]
    fn upper_triangular_solves_match_dense_reference() {
        // U (position space) = [[2, 1, 0], [0, 3, 1], [0, 0, 4]] with
        // shuffled physical indices: positions (0,1,2) live in rows (2,0,1)
        // and columns (1,2,0).
        let rpos = vec![2usize, 0, 1];
        let cpos = vec![1usize, 2, 0];
        let mut ucols: Vec<Vec<(usize, Rational)>> = vec![Vec::new(); 3];
        // Position 0 column: diagonal 2 (row 2).
        ucols[1] = vec![(2, rat(2, 1))];
        // Position 1 column: entry 1 at position 0 (row 2), diagonal 3 (row 0).
        ucols[2] = vec![(2, rat(1, 1)), (0, rat(3, 1))];
        // Position 2 column: entry 1 at position 1 (row 0), diagonal 4 (row 1).
        ucols[0] = vec![(0, rat(1, 1)), (1, rat(4, 1))];

        // FTRAN: solve U x = (5, 7, 8) in position space → scatter by rpos.
        let mut work = vec![Rational::zero(); 3];
        work[rpos[0]] = rat(5, 1);
        work[rpos[1]] = rat(7, 1);
        work[rpos[2]] = rat(8, 1);
        solve_upper_ftran(&mut work, &ucols, &cpos, &rpos);
        // Back substitution: x2 = 2, x1 = (7-2)/3 = 5/3, x0 = (5-5/3)/2 = 5/3.
        assert_eq!(work[rpos[2]], rat(2, 1));
        assert_eq!(work[rpos[1]], rat(5, 3));
        assert_eq!(work[rpos[0]], rat(5, 3));

        // BTRAN: solve Uᵀ z = e₁ (unit at position 1).
        let mut work = vec![Rational::zero(); 3];
        work[rpos[1]] = rat(1, 1);
        solve_upper_btran(&mut work, &ucols, &cpos, &rpos, 1);
        // z0 not needed (start at 1): z1 = 1/3, z2 = (0 - 1·z1)/4 = -1/12.
        assert_eq!(work[rpos[1]], rat(1, 3));
        assert_eq!(work[rpos[2]], rat(-1, 12));
        // Verify Uᵀz = e₁ on position 1: 1·z0? (z0 = 0) + 3·z1 = 1. ✓
        let recovered = rat(3, 1).mul_ref(&work[rpos[1]]);
        assert_eq!(recovered, rat(1, 1));
    }

    #[test]
    fn scatter_clear_dot_roundtrip() {
        let mut work = vec![Rational::zero(); 4];
        let entries = vec![(0, rat(1, 2)), (3, rat(-2, 1))];
        scatter(&mut work, &entries);
        assert_eq!(work[0], rat(1, 2));
        assert_eq!(work[3], rat(-2, 1));
        let dense = vec![rat(4, 1), rat(9, 1), rat(9, 1), rat(1, 2)];
        let (idx, val): (Vec<usize>, Vec<Rational>) = entries.into_iter().unzip();
        assert_eq!(SparseVec::new(&idx, &val).dot(&dense), rat(1, 1));
        clear(&mut work);
        assert!(work.iter().all(Rational::is_zero));
    }
}
