//! Linear-program model builder.
//!
//! The paper formulates two linear programs (Sections 2.4.3 and 2.5):
//! the consumer's optimal-interaction LP and the tailored optimal-mechanism
//! LP, both of the "minimize the maximum of several linear expressions subject
//! to linear constraints" shape. This module provides a small, strongly typed
//! model builder that those formulations are written against; the solver
//! itself lives in [`crate::simplex`].

use std::fmt;

use privmech_linalg::Scalar;

/// Identifier of a decision variable inside a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The dense index of this variable inside its model.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Bound specification for a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarBound {
    /// `x >= 0` (the default for probability masses).
    NonNegative,
    /// Unrestricted in sign (used for epigraph variables).
    Free,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relation::Le => write!(f, "<="),
            Relation::Ge => write!(f, ">="),
            Relation::Eq => write!(f, "=="),
        }
    }
}

/// Objective sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective expression.
    Minimize,
    /// Maximize the objective expression.
    Maximize,
}

/// A linear expression `sum_j coeff_j * x_j + constant`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinExpr<T: Scalar> {
    pub(crate) terms: Vec<(Var, T)>,
    pub(crate) constant: T,
}

impl<T: Scalar> Default for LinExpr<T> {
    fn default() -> Self {
        LinExpr::new()
    }
}

impl<T: Scalar> LinExpr<T> {
    /// The empty (zero) expression.
    #[must_use]
    pub fn new() -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: T::zero(),
        }
    }

    /// A single-term expression `coeff * var`.
    #[must_use]
    pub fn term(var: Var, coeff: T) -> Self {
        LinExpr {
            terms: vec![(var, coeff)],
            constant: T::zero(),
        }
    }

    /// A constant expression.
    #[must_use]
    pub fn constant(value: T) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// Add `coeff * var` to the expression (builder style).
    #[must_use]
    pub fn plus(mut self, var: Var, coeff: T) -> Self {
        self.add_term(var, coeff);
        self
    }

    /// Add `coeff * var` to the expression in place.
    pub fn add_term(&mut self, var: Var, coeff: T) {
        if !coeff.is_zero_approx() {
            self.terms.push((var, coeff));
        }
    }

    /// Add a constant to the expression in place.
    pub fn add_constant(&mut self, value: T) {
        self.constant = self.constant.clone() + value;
    }

    /// Add another expression to this one in place, never materializing
    /// zero coefficients.
    pub fn add_expr(&mut self, other: &LinExpr<T>) {
        for (v, c) in &other.terms {
            if !c.is_zero_approx() {
                self.terms.push((*v, c.clone()));
            }
        }
        self.constant = self.constant.clone() + other.constant.clone();
    }

    /// The terms stably sorted by variable, with duplicate variables summed
    /// **in their original term order** and exactly-zero sums dropped.
    ///
    /// Standard-form construction consumes this instead of scattering into a
    /// dense row: because the sort is stable, duplicates accumulate in the
    /// same order a dense accumulation would, so the resulting coefficients
    /// are bit-identical to the historical dense build (including on `f64`).
    #[must_use]
    pub fn merged_terms(&self) -> Vec<(Var, T)> {
        let mut sorted: Vec<(Var, T)> = self.terms.clone();
        sorted.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(Var, T)> = Vec::with_capacity(sorted.len());
        for (v, c) in sorted {
            match merged.last_mut() {
                Some((lv, lc)) if *lv == v => lc.add_assign_ref(&c),
                _ => merged.push((v, c)),
            }
        }
        merged.retain(|(_, c)| !c.is_exactly_zero());
        merged
    }

    /// The (variable, coefficient) terms.
    #[must_use]
    pub fn terms(&self) -> &[(Var, T)] {
        &self.terms
    }

    /// The additive constant.
    #[must_use]
    pub fn constant_part(&self) -> &T {
        &self.constant
    }

    /// Evaluate the expression at a dense assignment of variable values.
    ///
    /// # Panics
    /// Panics if a referenced variable index is out of bounds for `values`.
    #[must_use]
    pub fn evaluate(&self, values: &[T]) -> T {
        let mut acc = self.constant.clone();
        for (v, c) in &self.terms {
            acc = acc + c.clone() * values[v.0].clone();
        }
        acc
    }
}

/// A single linear constraint `expr (<=|>=|==) rhs`.
#[derive(Debug, Clone)]
pub struct Constraint<T: Scalar> {
    /// Left-hand-side expression (its constant is folded into the rhs).
    pub expr: LinExpr<T>,
    /// Comparison relation.
    pub relation: Relation,
    /// Right-hand-side constant.
    pub rhs: T,
}

/// Errors produced while building or solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// A variable from a different (or newer) model was used.
    UnknownVariable {
        /// The offending variable index.
        index: usize,
        /// The number of variables in the model.
        model_vars: usize,
    },
    /// The model has no objective set.
    MissingObjective,
    /// The linear program is infeasible.
    Infeasible,
    /// The linear program is unbounded in the direction of optimization.
    Unbounded,
    /// Internal invariant violation; indicates a bug in the solver.
    Internal(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::UnknownVariable { index, model_vars } => write!(
                f,
                "variable #{index} does not belong to this model ({model_vars} variables)"
            ),
            LpError::MissingObjective => write!(f, "no objective has been set"),
            LpError::Infeasible => write!(f, "the linear program is infeasible"),
            LpError::Unbounded => write!(f, "the linear program is unbounded"),
            LpError::Internal(msg) => write!(f, "internal solver error: {msg}"),
        }
    }
}

impl std::error::Error for LpError {}

/// Result of a successful solve: the optimal objective value, an optimal
/// assignment of the model's variables, and solver statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution<T: Scalar> {
    /// Optimal objective value (in the model's original sense).
    pub objective: T,
    /// Value of each model variable, indexed by [`Var::index`].
    pub values: Vec<T>,
    /// Pivot/iteration statistics recorded by the simplex solver.
    pub stats: crate::simplex::PivotStats,
}

impl<T: Scalar> Solution<T> {
    /// Value of a specific variable.
    #[must_use]
    pub fn value(&self, var: Var) -> &T {
        &self.values[var.0]
    }
}

/// A linear-programming model: variables, linear constraints, and a linear
/// objective.
#[derive(Debug, Clone)]
pub struct Model<T: Scalar> {
    pub(crate) bounds: Vec<VarBound>,
    pub(crate) names: Vec<String>,
    pub(crate) constraints: Vec<Constraint<T>>,
    pub(crate) objective: Option<(Sense, LinExpr<T>)>,
}

impl<T: Scalar> Default for Model<T> {
    fn default() -> Self {
        Model::new()
    }
}

impl<T: Scalar> Model<T> {
    /// An empty model.
    #[must_use]
    pub fn new() -> Self {
        Model {
            bounds: Vec::new(),
            names: Vec::new(),
            constraints: Vec::new(),
            objective: None,
        }
    }

    /// Add a decision variable with the given bound and name.
    pub fn add_var(&mut self, name: impl Into<String>, bound: VarBound) -> Var {
        self.bounds.push(bound);
        self.names.push(name.into());
        Var(self.bounds.len() - 1)
    }

    /// Add `count` non-negative variables named `prefix_k`.
    pub fn add_nonneg_vars(&mut self, prefix: &str, count: usize) -> Vec<Var> {
        (0..count)
            .map(|k| self.add_var(format!("{prefix}_{k}"), VarBound::NonNegative))
            .collect()
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.bounds.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable.
    #[must_use]
    pub fn var_name(&self, var: Var) -> &str {
        &self.names[var.0]
    }

    /// The constraints, in the order they were added.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint<T>] {
        &self.constraints
    }

    /// Add a constraint `expr relation rhs`.
    pub fn add_constraint(
        &mut self,
        expr: LinExpr<T>,
        relation: Relation,
        rhs: T,
    ) -> Result<(), LpError> {
        self.check_expr(&expr)?;
        self.constraints.push(Constraint {
            expr,
            relation,
            rhs,
        });
        Ok(())
    }

    /// Set the objective.
    pub fn set_objective(&mut self, sense: Sense, expr: LinExpr<T>) -> Result<(), LpError> {
        self.check_expr(&expr)?;
        self.objective = Some((sense, expr));
        Ok(())
    }

    /// Add an epigraph variable `d` with constraints `d >= expr_i` for every
    /// supplied expression and set the objective to `minimize d`.
    ///
    /// This is exactly the transformation the paper applies to turn
    /// `minimize max_{i in S} sum_r x_{i,r} l(i,r)` into a linear program
    /// (Section 2.5).
    pub fn minimize_max(&mut self, exprs: Vec<LinExpr<T>>) -> Result<Var, LpError> {
        let d = self.add_var("epigraph_d", VarBound::Free);
        for expr in exprs {
            self.check_expr(&expr)?;
            // d - expr >= 0  <=>  -expr + d >= 0, move expr's constant to rhs.
            let mut lhs = LinExpr::term(d, T::one());
            for (v, c) in &expr.terms {
                lhs.add_term(*v, -c.clone());
            }
            self.add_constraint(lhs, Relation::Ge, expr.constant)?;
        }
        self.set_objective(Sense::Minimize, LinExpr::term(d, T::one()))?;
        Ok(d)
    }

    fn check_expr(&self, expr: &LinExpr<T>) -> Result<(), LpError> {
        for (v, _) in &expr.terms {
            if v.0 >= self.bounds.len() {
                return Err(LpError::UnknownVariable {
                    index: v.0,
                    model_vars: self.bounds.len(),
                });
            }
        }
        Ok(())
    }

    /// Solve the model with the two-phase simplex method and default options
    /// (Dantzig pricing with the Bland anti-cycling fallback).
    pub fn solve(&self) -> Result<Solution<T>, LpError> {
        crate::simplex::solve_model(self)
    }

    /// Solve with explicit [`SolverOptions`](crate::simplex::SolverOptions)
    /// (e.g. pure Bland pricing for cross-checking).
    pub fn solve_with(
        &self,
        options: &crate::simplex::SolverOptions,
    ) -> Result<Solution<T>, LpError> {
        crate::simplex::solve_model_with(self, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_numerics::{rat, Rational};

    #[test]
    fn linexpr_builders_and_eval() {
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        let e = LinExpr::term(x, rat(2, 1)).plus(y, rat(-1, 2));
        assert_eq!(e.terms().len(), 2);
        assert_eq!(e.evaluate(&[rat(3, 1), rat(4, 1)]), rat(4, 1));
        let mut e2 = LinExpr::constant(rat(1, 1));
        e2.add_expr(&e);
        e2.add_constant(rat(1, 1));
        assert_eq!(e2.evaluate(&[rat(3, 1), rat(4, 1)]), rat(6, 1));
        // Zero coefficients are dropped.
        let z = LinExpr::new().plus(x, Rational::zero());
        assert!(z.terms().is_empty());
    }

    #[test]
    fn merged_terms_sums_duplicates_in_order_and_drops_zeros() {
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        let z = m.add_var("z", VarBound::NonNegative);
        // y appears twice (out of order), z's terms cancel exactly.
        let e = LinExpr::term(y, rat(1, 3))
            .plus(z, rat(5, 1))
            .plus(x, rat(2, 1))
            .plus(y, rat(1, 6))
            .plus(z, rat(-5, 1));
        let merged = e.merged_terms();
        assert_eq!(merged, vec![(x, rat(2, 1)), (y, rat(1, 2))]);
        // The expression itself is untouched.
        assert_eq!(e.terms().len(), 5);
    }

    #[test]
    fn unknown_variable_is_rejected() {
        let mut m1: Model<f64> = Model::new();
        let _x1 = m1.add_var("x", VarBound::NonNegative);
        let mut m2: Model<f64> = Model::new();
        let _ = m2.add_var("a", VarBound::NonNegative);
        let ghost = Var(7);
        let err = m2
            .add_constraint(LinExpr::term(ghost, 1.0), Relation::Le, 1.0)
            .unwrap_err();
        assert!(matches!(err, LpError::UnknownVariable { index: 7, .. }));
        let err = m2
            .set_objective(Sense::Minimize, LinExpr::term(ghost, 1.0))
            .unwrap_err();
        assert!(matches!(err, LpError::UnknownVariable { .. }));
    }

    #[test]
    fn model_bookkeeping() {
        let mut m: Model<f64> = Model::new();
        let xs = m.add_nonneg_vars("p", 3);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.var_name(xs[1]), "p_1");
        m.add_constraint(LinExpr::term(xs[0], 1.0), Relation::Le, 2.0)
            .unwrap();
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(xs[2].index(), 2);
    }

    #[test]
    fn relation_display() {
        assert_eq!(Relation::Le.to_string(), "<=");
        assert_eq!(Relation::Ge.to_string(), ">=");
        assert_eq!(Relation::Eq.to_string(), "==");
    }
}
