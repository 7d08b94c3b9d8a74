//! Dense row-major matrices over a [`Scalar`] field.
//!
//! The mechanism matrices of the paper are small and dense ((n+1) × (n+1) for a
//! count query over n rows), so a simple row-major `Vec` representation with
//! Gaussian elimination is both adequate and easy to verify. All algorithms are
//! generic over the scalar so the same code runs exactly (with `Rational`) or
//! fast (with `f64`).

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::scalar::Scalar;

/// Errors produced by matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The operands have incompatible dimensions.
    DimensionMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was found.
        found: String,
    },
    /// The matrix is singular (or numerically singular) and cannot be inverted
    /// or used to solve the requested system.
    Singular,
    /// The requested operation needs a square matrix.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// A row or column index was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The exclusive bound it must be below.
        bound: usize,
    },
    /// Construction from rows failed because the rows had differing lengths.
    RaggedRows,
    /// Construction was attempted with zero rows or zero columns.
    Empty,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            LinalgError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (must be < {bound})")
            }
            LinalgError::RaggedRows => write!(f, "rows have differing lengths"),
            LinalgError::Empty => write!(f, "matrix must have at least one row and one column"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major matrix over a [`Scalar`] field.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// A `rows × cols` matrix of zeros.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Matrix<T> {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Matrix<T> {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Build a matrix from a rectangular vector of rows.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Result<Matrix<T>, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::RaggedRows);
        }
        let nrows = rows.len();
        let data = rows.into_iter().flatten().collect();
        Ok(Matrix {
            rows: nrows,
            cols,
            data,
        })
    }

    /// Build a matrix by evaluating `f(row, col)` for every entry.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Matrix<T> {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True iff the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the entry at `(row, col)`, returning `None` when out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        if row < self.rows && col < self.cols {
            Some(&self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Set the entry at `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, value: T) -> Result<(), LinalgError> {
        if row >= self.rows {
            return Err(LinalgError::IndexOutOfBounds {
                index: row,
                bound: self.rows,
            });
        }
        if col >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: col,
                bound: self.cols,
            });
        }
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    /// Borrow row `row` as a slice.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Clone column `col` into a vector.
    ///
    /// # Panics
    /// Panics if `col` is out of bounds.
    #[must_use]
    pub fn col(&self, col: usize) -> Vec<T> {
        assert!(col < self.cols, "column index out of bounds");
        (0..self.rows).map(|i| self[(i, col)].clone()).collect()
    }

    /// Iterate over rows as slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks(self.cols)
    }

    /// Borrow row `row` as a mutable slice.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        assert!(row < self.rows, "row index out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Borrow two distinct rows at once, the first mutably.
    ///
    /// # Panics
    /// Panics if either index is out of bounds or the indices are equal.
    #[must_use]
    pub fn row_pair_mut(&mut self, dst: usize, src: usize) -> (&mut [T], &[T]) {
        assert!(
            dst < self.rows && src < self.rows,
            "row index out of bounds"
        );
        assert_ne!(dst, src, "row_pair_mut needs distinct rows");
        let cols = self.cols;
        if dst < src {
            let (lo, hi) = self.data.split_at_mut(src * cols);
            (&mut lo[dst * cols..(dst + 1) * cols], &hi[..cols])
        } else {
            let (lo, hi) = self.data.split_at_mut(dst * cols);
            (&mut hi[..cols], &lo[src * cols..(src + 1) * cols])
        }
    }

    /// In-place row axpy: `row[dst] -= factor * row[src]`.
    ///
    /// # Panics
    /// Panics if either index is out of bounds or the indices are equal.
    pub fn row_sub_scaled(&mut self, dst: usize, factor: &T, src: usize) {
        let (d, s) = self.row_pair_mut(dst, src);
        crate::kernels::sub_scaled(d, factor, s);
    }

    /// In-place row division: `row[row] /= divisor`.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn row_div(&mut self, row: usize, divisor: &T) {
        crate::kernels::div_all(self.row_mut(row), divisor);
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].clone())
    }

    /// Multiply every entry by `factor`.
    #[must_use]
    pub fn scale(&self, factor: &T) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .map(|v| v.clone() * factor.clone())
                .collect(),
        }
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Result<Matrix<T>, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{} rows on the right operand", self.cols),
                found: format!("{} rows", rhs.rows),
            });
        }
        let mut out: Matrix<T> = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)].clone();
                if a.is_zero_approx() {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] = out[(i, j)].clone() + a.clone() * rhs[(k, j)].clone();
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[T]) -> Result<Vec<T>, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("length {}", v.len()),
            });
        }
        Ok((0..self.rows)
            .map(|i| {
                let mut acc = T::zero();
                for j in 0..self.cols {
                    acc = acc + self[(i, j)].clone() * v[j].clone();
                }
                acc
            })
            .collect())
    }

    /// Determinant via fraction-preserving Gaussian elimination with partial
    /// pivoting (largest absolute pivot for `f64`, first nonzero for exact
    /// scalars — both are valid; the choice only affects conditioning).
    pub fn determinant(&self) -> Result<T, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut det = T::one();
        for col in 0..n {
            let pivot_row = match Self::choose_pivot(&a, col, col) {
                Some(r) => r,
                None => return Ok(T::zero()),
            };
            if pivot_row != col {
                a.swap_rows(pivot_row, col);
                det = -det;
            }
            let pivot = a[(col, col)].clone();
            det = det * pivot.clone();
            for row in (col + 1)..n {
                let factor = a[(row, col)].div_ref(&pivot);
                if factor.is_zero_approx() {
                    continue;
                }
                a.row_sub_scaled(row, &factor, col);
            }
        }
        Ok(det)
    }

    /// Inverse via Gauss–Jordan elimination.
    pub fn inverse(&self) -> Result<Matrix<T>, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv: Matrix<T> = Matrix::identity(n);
        for col in 0..n {
            let pivot_row = Self::choose_pivot(&a, col, col).ok_or(LinalgError::Singular)?;
            if pivot_row != col {
                a.swap_rows(pivot_row, col);
                inv.swap_rows(pivot_row, col);
            }
            let pivot = a[(col, col)].clone();
            a.row_div(col, &pivot);
            inv.row_div(col, &pivot);
            for row in 0..n {
                if row == col {
                    continue;
                }
                let factor = a[(row, col)].clone();
                if factor.is_zero_approx() {
                    continue;
                }
                a.row_sub_scaled(row, &factor, col);
                inv.row_sub_scaled(row, &factor, col);
            }
        }
        Ok(inv)
    }

    /// Solve `self * x = b` for `x` by Gaussian elimination.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("right-hand side of length {}", self.rows),
                found: format!("length {}", b.len()),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut rhs = b.to_vec();
        // Forward elimination.
        for col in 0..n {
            let pivot_row = Self::choose_pivot(&a, col, col).ok_or(LinalgError::Singular)?;
            if pivot_row != col {
                a.swap_rows(pivot_row, col);
                rhs.swap(pivot_row, col);
            }
            let pivot = a[(col, col)].clone();
            for row in (col + 1)..n {
                let factor = a[(row, col)].div_ref(&pivot);
                if factor.is_zero_approx() {
                    continue;
                }
                a.row_sub_scaled(row, &factor, col);
                let (lo, hi) = rhs.split_at_mut(row);
                hi[0].sub_mul_assign(&factor, &lo[col]);
            }
        }
        // Back substitution.
        let mut x = vec![T::zero(); n];
        for row in (0..n).rev() {
            let mut acc = rhs[row].clone();
            for j in (row + 1)..n {
                acc.sub_mul_assign(&a[(row, j)], &x[j]);
            }
            let pivot = &a[(row, row)];
            if pivot.is_zero_approx() {
                return Err(LinalgError::Singular);
            }
            x[row] = acc.div_ref(pivot);
        }
        Ok(x)
    }

    /// Choose a pivot row in `col`, considering rows `start..`. Returns `None`
    /// when the whole sub-column is (approximately) zero.
    fn choose_pivot(a: &Matrix<T>, col: usize, start: usize) -> Option<usize> {
        if T::is_exact() {
            (start..a.rows).find(|&r| !a[(r, col)].is_zero_approx())
        } else {
            let mut best: Option<(usize, T)> = None;
            for r in start..a.rows {
                let mag = a[(r, col)].abs();
                match &best {
                    Some((_, b)) if *b >= mag => {}
                    _ => best = Some((r, mag)),
                }
            }
            match best {
                Some((r, mag)) if !mag.is_zero_approx() => Some(r),
                _ => None,
            }
        }
    }

    /// Swap two rows in place.
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, r1: usize, r2: usize) {
        assert!(r1 < self.rows && r2 < self.rows, "row index out of bounds");
        if r1 == r2 {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(r1 * self.cols + j, r2 * self.cols + j);
        }
    }

    /// True iff every row sums to one and every entry is non-negative
    /// (up to the scalar tolerance): a Markov / post-processing matrix.
    #[must_use]
    pub fn is_row_stochastic(&self) -> bool {
        self.row_iter().all(|row| {
            let sum = row.iter().cloned().fold(T::zero(), |a, b| a + b);
            sum.approx_eq(&T::one()) && row.iter().all(|v| !v.is_negative_approx())
        })
    }

    /// True iff every row sums to one, with **no** sign condition on the
    /// entries ("generalized stochastic" in the paper's terminology, after
    /// Poole's *stochastic group*).
    #[must_use]
    pub fn is_generalized_stochastic(&self) -> bool {
        self.row_iter().all(|row| {
            let sum = row.iter().cloned().fold(T::zero(), |a, b| a + b);
            sum.approx_eq(&T::one())
        })
    }

    /// Map every entry through `f`, producing a matrix over a possibly
    /// different scalar type.
    #[must_use]
    pub fn map<U: Scalar>(&self, f: impl FnMut(&T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Flat row-major access to the underlying entries.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl<T: Scalar> Add for &Matrix<T> {
    type Output = Matrix<T>;
    fn add(self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.rows, rhs.rows, "row mismatch in matrix addition");
        assert_eq!(self.cols, rhs.cols, "column mismatch in matrix addition");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a.clone() + b.clone())
                .collect(),
        }
    }
}

impl<T: Scalar> Sub for &Matrix<T> {
    type Output = Matrix<T>;
    fn sub(self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.rows, rhs.rows, "row mismatch in matrix subtraction");
        assert_eq!(self.cols, rhs.cols, "column mismatch in matrix subtraction");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a.clone() - b.clone())
                .collect(),
        }
    }
}

impl<T: Scalar> Mul for &Matrix<T> {
    type Output = Matrix<T>;
    fn mul(self, rhs: &Matrix<T>) -> Matrix<T> {
        self.matmul(rhs)
            .expect("dimension mismatch in matrix product")
    }
}

impl<T: Scalar> fmt::Display for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Compute a column width from the rendered entries for readable output.
        let rendered: Vec<Vec<String>> = self
            .row_iter()
            .map(|row| row.iter().map(|v| v.to_string()).collect())
            .collect();
        let width = rendered
            .iter()
            .flatten()
            .map(|s| s.len())
            .max()
            .unwrap_or(1);
        for row in &rendered {
            write!(f, "[ ")?;
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}")?;
            }
            writeln!(f, " ]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_numerics::{rat, Rational};

    fn rmat(rows: Vec<Vec<(i64, i64)>>) -> Matrix<Rational> {
        Matrix::from_rows(
            rows.into_iter()
                .map(|r| r.into_iter().map(|(n, d)| rat(n, d)).collect())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn construction_and_indexing() {
        let m: Matrix<f64> = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.get(1, 0), Some(&3.0));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn from_rows_rejects_bad_shapes() {
        assert_eq!(
            Matrix::<f64>::from_rows(vec![]).unwrap_err(),
            LinalgError::Empty
        );
        assert_eq!(
            Matrix::<f64>::from_rows(vec![vec![]]).unwrap_err(),
            LinalgError::Empty
        );
        assert_eq!(
            Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).unwrap_err(),
            LinalgError::RaggedRows
        );
    }

    #[test]
    fn set_bounds_checked() {
        let mut m: Matrix<f64> = Matrix::zeros(2, 2);
        assert!(m.set(0, 0, 5.0).is_ok());
        assert!(matches!(
            m.set(2, 0, 1.0),
            Err(LinalgError::IndexOutOfBounds { index: 2, bound: 2 })
        ));
        assert!(matches!(
            m.set(0, 3, 1.0),
            Err(LinalgError::IndexOutOfBounds { index: 3, bound: 2 })
        ));
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let m = rmat(vec![vec![(1, 2), (1, 3)], vec![(2, 5), (3, 7)]]);
        let id = Matrix::<Rational>::identity(2);
        assert_eq!(m.matmul(&id).unwrap(), m);
        assert_eq!(id.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product_and_dimension_errors() {
        let a: Matrix<f64> =
            Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let b: Matrix<f64> =
            Matrix::from_rows(vec![vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(vec![vec![58.0, 64.0], vec![139.0, 154.0]]).unwrap()
        );
        assert!(b.matmul(&b).is_err());
    }

    #[test]
    fn matvec_and_vecmat() {
        let a: Matrix<f64> = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        // The row-vector product v·A is Aᵀ·v.
        assert_eq!(a.transpose().matvec(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.transpose().matvec(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a: Matrix<f64> =
            Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn determinant_exact_small_cases() {
        let m = rmat(vec![vec![(1, 1), (2, 1)], vec![(3, 1), (4, 1)]]);
        assert_eq!(m.determinant().unwrap(), rat(-2, 1));
        let singular = rmat(vec![vec![(1, 1), (2, 1)], vec![(2, 1), (4, 1)]]);
        assert_eq!(singular.determinant().unwrap(), Rational::zero());
        let id = Matrix::<Rational>::identity(5);
        assert_eq!(id.determinant().unwrap(), Rational::one());
        let non_square: Matrix<Rational> = Matrix::zeros(2, 3);
        assert!(non_square.determinant().is_err());
    }

    #[test]
    fn determinant_needs_row_swap() {
        // Leading zero forces pivoting.
        let m = rmat(vec![
            vec![(0, 1), (1, 1), (2, 1)],
            vec![(1, 1), (0, 1), (1, 1)],
            vec![(2, 1), (1, 1), (0, 1)],
        ]);
        // det = 0*... - expand: known value 4? compute: rows (0,1,2;1,0,1;2,1,0) det = 4.
        assert_eq!(m.determinant().unwrap(), rat(4, 1));
    }

    #[test]
    fn inverse_times_original_is_identity_exact() {
        let m = rmat(vec![
            vec![(2, 1), (1, 1), (0, 1)],
            vec![(1, 1), (3, 1), (1, 1)],
            vec![(0, 1), (1, 1), (4, 1)],
        ]);
        let inv = m.inverse().unwrap();
        assert_eq!(m.matmul(&inv).unwrap(), Matrix::identity(3));
        assert_eq!(inv.matmul(&m).unwrap(), Matrix::identity(3));
    }

    #[test]
    fn inverse_of_singular_fails() {
        let singular = rmat(vec![vec![(1, 1), (2, 1)], vec![(2, 1), (4, 1)]]);
        assert_eq!(singular.inverse().unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn solve_known_system() {
        let m = rmat(vec![vec![(2, 1), (1, 1)], vec![(1, 1), (3, 1)]]);
        // Solve [2 1; 1 3] x = [5; 10]  =>  x = [1, 3].
        let x = m.solve(&[rat(5, 1), rat(10, 1)]).unwrap();
        assert_eq!(x, vec![rat(1, 1), rat(3, 1)]);
        assert!(m.solve(&[rat(1, 1)]).is_err());
        let singular = rmat(vec![vec![(1, 1), (2, 1)], vec![(2, 1), (4, 1)]]);
        assert!(singular.solve(&[rat(1, 1), rat(2, 1)]).is_err());
    }

    #[test]
    fn solve_f64_with_pivoting() {
        let m: Matrix<f64> = Matrix::from_rows(vec![
            vec![1e-12, 1.0, 0.0],
            vec![1.0, 1.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ])
        .unwrap();
        let x = m.solve(&[1.0, 6.0, 9.0]).unwrap();
        let back = m.matvec(&x).unwrap();
        for (b, expected) in back.iter().zip([1.0, 6.0, 9.0]) {
            assert!((b - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn stochasticity_checks() {
        let stochastic = rmat(vec![vec![(1, 2), (1, 2)], vec![(1, 4), (3, 4)]]);
        assert!(stochastic.is_row_stochastic());
        assert!(stochastic.is_generalized_stochastic());
        let generalized = rmat(vec![vec![(3, 2), (-1, 2)], vec![(1, 4), (3, 4)]]);
        assert!(!generalized.is_row_stochastic());
        assert!(generalized.is_generalized_stochastic());
        let neither = rmat(vec![vec![(1, 2), (1, 4)], vec![(1, 4), (3, 4)]]);
        assert!(!neither.is_row_stochastic());
        assert!(!neither.is_generalized_stochastic());
    }

    #[test]
    fn scale_add_sub() {
        let a = rmat(vec![vec![(1, 2), (1, 3)], vec![(1, 4), (1, 5)]]);
        let doubled = a.scale(&rat(2, 1));
        assert_eq!(doubled[(0, 0)], rat(1, 1));
        assert_eq!(&doubled - &a, a);
        assert_eq!(&a + &a, doubled);
    }

    #[test]
    fn map_between_scalar_types() {
        let a = rmat(vec![vec![(1, 2), (1, 4)], vec![(3, 4), (1, 1)]]);
        let f: Matrix<f64> = a.map(|v| v.to_f64());
        assert_eq!(f[(0, 0)], 0.5);
        assert_eq!(f[(1, 1)], 1.0);
    }

    #[test]
    fn display_renders_fractions() {
        let a = rmat(vec![vec![(1, 2), (1, 3)]]);
        let s = a.to_string();
        assert!(s.contains("1/2"));
        assert!(s.contains("1/3"));
    }
}
