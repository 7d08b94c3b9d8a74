//! The row product `ρᵀA` of the exact simplex forms, computed fraction-free.
//!
//! Every revised or dual simplex pivot recovers its tableau row as `ρᵀA`
//! (`ρ` from a unit BTRAN), and every phase-2 pricing rebuild computes
//! `c − ρᵀA`. Summed term by term over `Rational`, each constraint nonzero
//! costs one fused `add_mul` with its gcd reductions. [`RowProduct`] instead
//! works on an integer view of the constraint store, built once per solve:
//!
//! * per column `j`, the common denominator `E_j`: the lcm of the column's
//!   entry denominators;
//! * per nonzero, the integer numerator `N_ij = a_ij·E_j`, stored flat and
//!   aligned with the CSR values.
//!
//! A product brings `ρ` to one denominator `Q` (the lcm of its nonzero
//! denominators), accumulates `acc_j = Σ_i (ρ_i·Q)·N_ij` in integers with no
//! gcd, and normalizes once per column: `r_j = acc_j / (Q·E_j)`. Rationals
//! are canonical, so `r_j` is the identical value the term-by-term sum
//! produces, and pivot sequences and solutions cannot change.
//!
//! Accumulators are `i128` lanes while every term is an `i64 × i64` product
//! (the common case); a lane that would overflow spills into a per-column
//! `BigInt`, and the rare numerator or scaled weight outside `i64` takes a
//! `BigInt` product into the same spill, which is only allocated once
//! something spills. Only exact scalars run the revised and dual forms, and
//! those are backed by a [`Rational`] ([`Scalar::as_rational`]).

use privmech_linalg::sparse::Csr;
use privmech_linalg::Scalar;
use privmech_numerics::{BigInt, Rational};

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

/// The rational behind an exact scalar.
fn rational<T: Scalar>(v: &T) -> &Rational {
    v.as_rational()
        .expect("the revised and dual simplex forms run on exact scalars")
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
    /// Build the integer view of `rows`.
    pub(crate) fn new<T: Scalar>(rows: &Csr<T>) -> RowProduct {
        let cols = rows.col_indices();
        let values = rows.csr_values();
        let mut col_den = vec![BigInt::one(); rows.num_cols()];
        for (&j, v) in cols.iter().zip(values) {
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

    /// Overwrite `out[j]` with `(ρᵀA)_j` for every column `j` of `rows`, the
    /// store this product was built from (`rho` has one entry per row).
    pub(crate) fn compute<T: Scalar>(&mut self, rows: &Csr<T>, rho: &[T], out: &mut [T]) {
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

        for (j, out_j) in out[..num_cols].iter_mut().enumerate() {
            let lane = BigInt::from(std::mem::take(&mut lanes[j]));
            let acc = match spill.get_mut(j) {
                Some(spilled) if !spilled.is_zero() => &std::mem::take(spilled) + &lane,
                _ => lane,
            };
            *out_j = if acc.is_zero() {
                T::zero()
            } else {
                T::from_rational(Rational::new(acc, &q * &self.col_den[j]))
            };
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

    use super::RowProduct;

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
            let mut product = RowProduct::new(&store);
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
        RowProduct::new(&store).compute(&store, &rho, &mut out);
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
        RowProduct::new(&store).compute(&store, &rho, &mut out);
        assert_eq!(out, reference(&store, &rho));
    }
}
