//! The row product `ρᵀA` of the exact simplex forms, computed fraction-free.
//!
//! Two products run over the constraint matrix: the revised form prices
//! every iteration from the simplex multipliers, `d = c − yᵀA`, and its
//! drive-out pivots recover a tableau row as `ρᵀA` (`ρ` from a unit BTRAN). Summed term by
//! term over `Rational`, each constraint nonzero costs one fused `add_mul`
//! with its gcd reductions. [`RowProduct`] instead works on an integer view
//! of the constraint store, built once per solve:
//!
//! * per column `j`, the common denominator `E_j`: the lcm of the column's
//!   entry denominators and of its cost's, so `c_j·E_j` is an integer too;
//! * per nonzero, the integer numerator `N_ij = a_ij·E_j`, stored flat and
//!   aligned with the CSR values.
//!
//! A product brings `ρ` to one denominator `Q` (the lcm of its nonzero
//! denominators) and accumulates `acc_j = Σ_i (ρ_i·Q)·N_ij` in integers with
//! no gcd. The tableau row normalizes once per column:
//! `r_j = acc_j / (Q·E_j)`. Rationals are canonical, so `r_j` is the
//! identical value the term-by-term sum produces, and pivot sequences and
//! solutions cannot change. Pricing normalizes nothing: it keeps
//! `d_j = (c_j·E_j·Q − acc_j) / (Q·E_j)` as an integer numerator over the
//! positive denominator `Q·E_j` ([`ScaledCosts`]), which is all the
//! entering rules need — signs, and exact comparisons by cross
//! multiplication, in which the common `Q` cancels.
//!
//! Accumulators are `i128` lanes while every term is an `i64 × i64` product
//! (the common case); a lane that would overflow spills into a per-column
//! `BigInt`, and the rare numerator or scaled weight outside `i64` takes a
//! `BigInt` product into the same spill, which is only allocated once
//! something spills. Only exact scalars run the revised and dual forms, and
//! those are backed by a [`Rational`] ([`Scalar::as_rational`]).

use std::cmp::Ordering;

use privmech_linalg::sparse::Csr;
use privmech_linalg::Scalar;
use privmech_numerics::{BigInt, Rational};

use crate::pricing::ReducedCosts;

/// An exact integer, kept in an `i128` while it fits (`Wide` only holds
/// values outside `i128`).
#[derive(Clone)]
pub(crate) enum Int {
    Word(i128),
    Wide(BigInt),
}

impl Int {
    fn from_big(v: BigInt) -> Int {
        match v.to_i128() {
            Some(w) => Int::Word(w),
            None => Int::Wide(v),
        }
    }

    fn to_big(&self) -> BigInt {
        match self {
            Int::Word(w) => BigInt::from(*w),
            Int::Wide(v) => v.clone(),
        }
    }

    fn is_negative(&self) -> bool {
        match self {
            Int::Word(w) => *w < 0,
            Int::Wide(v) => v.is_negative(),
        }
    }

    fn mul(&self, other: &Int) -> Int {
        if let (Int::Word(a), Int::Word(b)) = (self, other) {
            if let Some(p) = a.checked_mul(*b) {
                return Int::Word(p);
            }
        }
        Int::from_big(&self.to_big() * &other.to_big())
    }

    fn sub(&self, other: &Int) -> Int {
        if let (Int::Word(a), Int::Word(b)) = (self, other) {
            if let Some(d) = a.checked_sub(*b) {
                return Int::Word(d);
            }
        }
        Int::from_big(&self.to_big() - &other.to_big())
    }

    fn cmp(&self, other: &Int) -> Ordering {
        match (self, other) {
            (Int::Word(a), Int::Word(b)) => a.cmp(b),
            _ => self.to_big().cmp(&other.to_big()),
        }
    }
}

/// `ρᵀA` over the columns of one constraint store: the store's integer view
/// plus the accumulators each product reuses.
pub(crate) struct RowProduct {
    /// `E_j` by column.
    col_den: Vec<BigInt>,
    /// `N_ij` by CSR position; 0 where the numerator does not fit `i64`
    /// and lives in `wide` instead.
    nums: Vec<i64>,
    /// `(CSR position, N_ij)` for the numerators outside `i64`, by position.
    wide: Vec<(usize, BigInt)>,
    /// Per-column `i128` accumulators, zero between products.
    lanes: Vec<i128>,
    /// Per-column overflow accumulators, zero between products; empty
    /// until the first spill.
    spill: Vec<BigInt>,
}

/// Reduced costs `d = c − yᵀA` priced from the multipliers `y` and never
/// normalized: `d_j = num_j / (Q·E_j)` with `Q > 0` common to all columns.
/// Columns past the constraint store's are unit columns (the revised form's
/// artificials), with `E_j = 1`.
pub(crate) struct ScaledCosts {
    /// `d_j·Q·E_j` by column.
    num: Vec<Int>,
    /// `E_j` by column.
    den: Vec<Int>,
    /// The last product's `Q`, read only by the tests' canonical values.
    #[cfg(test)]
    q: BigInt,
}

impl ScaledCosts {
    /// An all-zero view over `product`'s columns plus `units` unit columns.
    pub(crate) fn new(product: &RowProduct, units: usize) -> ScaledCosts {
        let mut den: Vec<Int> = product.col_den.iter().cloned().map(Int::from_big).collect();
        den.resize(den.len() + units, Int::Word(1));
        ScaledCosts {
            num: vec![Int::Word(0); den.len()],
            den,
            #[cfg(test)]
            q: BigInt::one(),
        }
    }

    /// The canonical `d_j`.
    #[cfg(test)]
    pub(crate) fn value(&self, j: usize) -> Rational {
        Rational::new(self.num[j].to_big(), &self.q * &self.den[j].to_big())
    }
}

impl ReducedCosts for ScaledCosts {
    fn is_negative(&self, j: usize) -> bool {
        self.num[j].is_negative()
    }

    /// `d_a < d_b` iff `num_a·E_b < num_b·E_a`: both denominators are
    /// positive and share the factor `Q`.
    fn less(&self, a: usize, b: usize) -> bool {
        let lhs = self.num[a].mul(&self.den[b]);
        let rhs = self.num[b].mul(&self.den[a]);
        lhs.cmp(&rhs) == Ordering::Less
    }
}

/// The rational behind an exact scalar.
fn rational<T: Scalar>(v: &T) -> &Rational {
    v.as_rational()
        .expect("the revised simplex runs on exact scalars")
}

fn lcm(a: &BigInt, b: &BigInt) -> BigInt {
    &(a / &a.gcd(b)) * b
}

/// `num · (target / den)`: a fraction's numerator over the common
/// denominator `target` (a multiple of `den`).
fn rescale(r: &Rational, target: &BigInt) -> BigInt {
    if r.denom() == target {
        r.numer().clone()
    } else {
        r.numer() * &(target / r.denom())
    }
}

/// Column `j`'s overflow accumulator, sizing the store on first use.
fn spill_at(spill: &mut Vec<BigInt>, num_cols: usize, j: usize) -> &mut BigInt {
    if spill.is_empty() {
        spill.resize(num_cols, BigInt::zero());
    }
    &mut spill[j]
}

impl RowProduct {
    /// Build the integer view of `rows`, whose columns cost `costs`.
    pub(crate) fn new<T: Scalar>(rows: &Csr<T>, costs: &[T]) -> RowProduct {
        let cols = rows.col_indices();
        let values = rows.csr_values();
        let mut col_den = vec![BigInt::one(); rows.num_cols()];
        let entries = cols.iter().copied().zip(values);
        for (j, v) in entries.chain(costs.iter().enumerate()) {
            let den = rational(v).denom();
            if !den.is_one() {
                col_den[j] = lcm(&col_den[j], den);
            }
        }
        let mut nums = Vec::with_capacity(values.len());
        let mut wide = Vec::new();
        for (k, (&j, v)) in cols.iter().zip(values).enumerate() {
            let n = rescale(rational(v), &col_den[j]);
            match n.to_i64() {
                Some(small) => nums.push(small),
                None => {
                    nums.push(0);
                    wide.push((k, n));
                }
            }
        }
        RowProduct {
            col_den,
            nums,
            wide,
            lanes: Vec::new(),
            spill: Vec::new(),
        }
    }

    /// `c_j·E_j` by column: a phase's costs on the product's scale, for
    /// [`RowProduct::reduced_costs`]. `costs` runs over the store's columns
    /// and then over the unit columns, whose costs must be integers.
    pub(crate) fn scale_costs<T: Scalar>(&self, costs: &[T]) -> Vec<Int> {
        let one = BigInt::one();
        costs
            .iter()
            .enumerate()
            .map(|(j, c)| Int::from_big(rescale(rational(c), self.col_den.get(j).unwrap_or(&one))))
            .collect()
    }

    /// Accumulate `acc_j = Σ_i (ρ_i·Q)·N_ij` into the lanes and spills and
    /// return `Q` (`rho` has one entry per row of `rows`, the store this
    /// product was built from).
    fn accumulate<T: Scalar>(&mut self, rows: &Csr<T>, rho: &[T]) -> BigInt {
        debug_assert_eq!(self.nums.len(), rows.nnz(), "view built from another store");
        let num_cols = self.col_den.len();
        self.lanes.resize(num_cols, 0);
        let lanes = &mut self.lanes;
        let spill = &mut self.spill;

        let mut q = BigInt::one();
        for v in rho {
            let den = rational(v).denom();
            if !den.is_one() {
                q = lcm(&q, den);
            }
        }

        let row_ptr = rows.row_ptr();
        let col_idx = rows.col_indices();
        for (i, v) in rho.iter().enumerate() {
            let r = rational(v);
            if r.is_zero() {
                continue;
            }
            let w = rescale(r, &q);
            let span = row_ptr[i]..row_ptr[i + 1];
            let cols = &col_idx[span.clone()];
            let nums = &self.nums[span.clone()];
            if let Some(w_small) = w.to_i64() {
                for (&j, &n) in cols.iter().zip(nums) {
                    let term = i128::from(w_small) * i128::from(n);
                    match lanes[j].checked_add(term) {
                        Some(sum) => lanes[j] = sum,
                        None => {
                            *spill_at(spill, num_cols, j) += &BigInt::from(lanes[j]);
                            lanes[j] = term;
                        }
                    }
                }
            } else {
                for (&j, &n) in cols.iter().zip(nums) {
                    if n != 0 {
                        *spill_at(spill, num_cols, j) += &(&w * &BigInt::from(n));
                    }
                }
            }
            let first = self.wide.partition_point(|(k, _)| *k < span.start);
            for (k, n) in self.wide[first..].iter().take_while(|(k, _)| *k < span.end) {
                *spill_at(spill, num_cols, col_idx[*k]) += &(&w * n);
            }
        }
        q
    }

    /// Column `j`'s accumulated `acc_j`, leaving its accumulators zero.
    fn take(&mut self, j: usize) -> Int {
        let lane = std::mem::take(&mut self.lanes[j]);
        match self.spill.get_mut(j) {
            Some(spilled) if !spilled.is_zero() => {
                Int::from_big(&std::mem::take(spilled) + &BigInt::from(lane))
            }
            _ => Int::Word(lane),
        }
    }

    /// Overwrite `out[j]` with `(ρᵀA)_j` for every column `j` of `rows`, the
    /// store this product was built from (`rho` has one entry per row).
    pub(crate) fn compute<T: Scalar>(&mut self, rows: &Csr<T>, rho: &[T], out: &mut [T]) {
        let q = self.accumulate(rows, rho);
        for (j, out_j) in out[..self.col_den.len()].iter_mut().enumerate() {
            *out_j = match self.take(j) {
                Int::Word(0) => T::zero(),
                acc => T::from_rational(Rational::new(acc.to_big(), &q * &self.col_den[j])),
            };
        }
    }

    /// Price `out` from the multipliers `y`: `d_j = c_j − (yᵀA)_j` for every
    /// column of `rows` (the store this product was built from) and of the
    /// unit columns at `unit_rows`, whose `(yᵀA)_j` is `y` at their row.
    /// `costs` is the phase's [`RowProduct::scale_costs`].
    pub(crate) fn reduced_costs<T: Scalar>(
        &mut self,
        rows: &Csr<T>,
        y: &[T],
        costs: &[Int],
        unit_rows: &[usize],
        out: &mut ScaledCosts,
    ) {
        let q = self.accumulate(rows, y);
        let q_int = Int::from_big(q.clone());
        let price = |c: &Int, acc: &Int| c.mul(&q_int).sub(acc);
        let num_cols = self.col_den.len();
        for (j, (num, c)) in out.num[..num_cols].iter_mut().zip(costs).enumerate() {
            *num = price(c, &self.take(j));
        }
        for (k, &r) in unit_rows.iter().enumerate() {
            let acc = Int::from_big(rescale(rational(&y[r]), &q));
            out.num[num_cols + k] = price(&costs[num_cols + k], &acc);
        }
        #[cfg(test)]
        {
            out.q = q;
        }
    }
}

#[cfg(test)]
mod tests {
    use privmech_linalg::sparse::Csr;
    use privmech_linalg::Scalar;
    use privmech_numerics::{BigInt, Rational};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::{RowProduct, ScaledCosts};
    use crate::pricing::ReducedCosts;

    /// The term-by-term sweep the integer product replaces.
    fn reference(rows: &Csr<Rational>, rho: &[Rational]) -> Vec<Rational> {
        let mut out = vec![Rational::zero(); rows.num_cols()];
        for (i, mult) in rho.iter().enumerate() {
            if mult.is_exactly_zero() {
                continue;
            }
            for (j, a) in rows.row(i).iter() {
                out[j].add_mul_assign(mult, a);
            }
        }
        out
    }

    /// `±(2^bits + δ)` for `bits` in {64, 128}, else a small signed value,
    /// over `den`.
    fn entry(rng: &mut StdRng, den: BigInt) -> Rational {
        let delta = BigInt::from(rng.gen_range(1i64..1000));
        let magnitude = match rng.gen_range(0u32..10) {
            0 => &BigInt::one().shl_bits(64) + &delta,
            1 => &BigInt::one().shl_bits(128) + &delta,
            _ => delta,
        };
        let num = if rng.gen_bool(0.5) {
            -magnitude
        } else {
            magnitude
        };
        Rational::new(num, den)
    }

    fn random_store(rng: &mut StdRng, rows: usize, cols: usize, wide: bool) -> Csr<Rational> {
        let mut data = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut row = Vec::new();
            for j in 0..cols {
                if rng.gen_bool(0.4) {
                    let den = [1, 2, 3, 5, 7, 9, 16, 81][rng.gen_range(0usize..8)];
                    let value = if wide {
                        // Occasionally a denominator beyond two limbs.
                        let den = match rng.gen_range(0u32..6) {
                            0 => &BigInt::one().shl_bits(130) + &BigInt::from(den),
                            _ => BigInt::from(den),
                        };
                        entry(rng, den)
                    } else {
                        Rational::from_ratio(rng.gen_range(-50i64..50), den)
                    };
                    row.push((j, value));
                }
            }
            data.push(row);
        }
        Csr::from_rows(cols, data)
    }

    fn random_rho(rng: &mut StdRng, rows: usize, wide: bool) -> Vec<Rational> {
        (0..rows)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    Rational::zero()
                } else if wide {
                    let den = BigInt::from(rng.gen_range(1i64..40));
                    entry(rng, den)
                } else {
                    Rational::from_ratio(rng.gen_range(-9i64..10), rng.gen_range(1i64..40))
                }
            })
            .collect()
    }

    /// Seeded random stores and weights, small and multi-limb: the integer
    /// product must equal the `add_mul` sweep entry for entry, with every
    /// entry overwritten (stale output and scratch must not leak through).
    #[test]
    fn integer_product_matches_the_add_mul_sweep() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0014);
        for case in 0..60 {
            let wide = case % 3 == 2;
            let (m, n) = (rng.gen_range(1usize..9), rng.gen_range(1usize..14));
            let store = random_store(&mut rng, m, n, wide);
            let mut product = RowProduct::new(&store, &[]);
            let mut out = vec![Rational::from_ratio(7, 3); n];
            for _ in 0..4 {
                let wide_rho = wide || rng.gen_bool(0.2);
                let rho = random_rho(&mut rng, m, wide_rho);
                product.compute(&store, &rho, &mut out);
                assert_eq!(out, reference(&store, &rho), "case {case}");
            }
            let zeros = vec![Rational::zero(); m];
            product.compute(&store, &zeros, &mut out);
            assert!(out.iter().all(Rational::is_zero), "all-zero ρ");
        }
    }

    /// Pricing from the multipliers: the unnormalized reduced costs equal
    /// `c − yᵀA` from the `add_mul` sweep, unit columns included, and the
    /// view answers every sign and order question as the canonical
    /// rationals do — on small values and on multi-limb ones, whose
    /// products and comparisons leave `i128`.
    #[test]
    fn reduced_costs_match_the_add_mul_sweep() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0019);
        for case in 0..60 {
            let wide = case % 3 == 2;
            let (m, n) = (rng.gen_range(1usize..9), rng.gen_range(1usize..14));
            let store = random_store(&mut rng, m, n, wide);
            let units: Vec<usize> = (0..m).filter(|_| rng.gen_bool(0.3)).collect();
            let mut costs: Vec<Rational> = (0..n)
                .map(|_| match rng.gen_range(0u32..3) {
                    0 => Rational::zero(),
                    _ if wide => {
                        let den = BigInt::from(rng.gen_range(1i64..40));
                        entry(&mut rng, den)
                    }
                    _ => Rational::from_ratio(rng.gen_range(-9i64..10), rng.gen_range(1i64..12)),
                })
                .collect();
            costs.extend(
                units
                    .iter()
                    .map(|_| Rational::from_int(rng.gen_range(0i64..2))),
            );
            let mut product = RowProduct::new(&store, &costs[..n]);
            let scaled = product.scale_costs(&costs);
            let mut out = ScaledCosts::new(&product, units.len());
            for _ in 0..4 {
                let wide_y = wide || rng.gen_bool(0.2);
                let y = random_rho(&mut rng, m, wide_y);
                product.reduced_costs(&store, &y, &scaled, &units, &mut out);
                let mut expected = costs.clone();
                for (d, r) in expected.iter_mut().zip(reference(&store, &y)) {
                    *d -= &r;
                }
                for (d, &r) in expected[n..].iter_mut().zip(&units) {
                    *d -= &y[r];
                }
                let got: Vec<Rational> = (0..costs.len()).map(|j| out.value(j)).collect();
                assert_eq!(got, expected, "case {case}");
                for (a, d_a) in expected.iter().enumerate() {
                    assert_eq!(out.is_negative(a), d_a.is_negative(), "case {case}");
                    for (b, d_b) in expected.iter().enumerate() {
                        assert_eq!(out.less(a, b), d_a < d_b, "case {case}: {a} < {b}");
                    }
                }
            }
        }
    }

    /// Weights chosen so every `i128` lane overflows: the spill must carry
    /// the exact sum.
    #[test]
    fn lane_overflow_spills_exactly() {
        let big = i64::MAX;
        let store = Csr::from_rows(
            2,
            (0..6)
                .map(|i| {
                    vec![
                        (0, Rational::from_int(big)),
                        (1, Rational::from_ratio(1, i + 2)),
                    ]
                })
                .collect(),
        );
        let rho: Vec<Rational> = (0..6).map(|_| Rational::from_int(big)).collect();
        let mut out = vec![Rational::zero(); 2];
        RowProduct::new(&store, &[]).compute(&store, &rho, &mut out);
        assert_eq!(out, reference(&store, &rho));
    }

    /// Columns mixing denominators `α^|i−z|`, the shape of the mechanism
    /// LPs, with weights of both signs.
    #[test]
    fn geometric_denominators_share_one_column_scale() {
        let alpha = Rational::from_ratio(5, 9);
        let n = 11usize;
        let store = Csr::from_rows(
            n + 1,
            (0..=n)
                .map(|z| {
                    (0..=n)
                        .map(|i| (i, Scalar::powi(&alpha, z.abs_diff(i) as u32)))
                        .collect()
                })
                .collect(),
        );
        let rho: Vec<Rational> = (0..=n as i64)
            .map(|i| Rational::from_ratio(i - 5, 3 * i + 1))
            .collect();
        let mut out = vec![Rational::zero(); n + 1];
        RowProduct::new(&store, &[]).compute(&store, &rho, &mut out);
        assert_eq!(out, reference(&store, &rho));
    }
}
