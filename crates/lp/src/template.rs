//! Parameterized model reuse: solve one LP structure at many parameter values.
//!
//! The paper's linear programs come in α-indexed families whose *structure*
//! (variables, constraint shapes, objective) does not depend on the privacy
//! level — only some coefficients do. The Section 2.5 tailored-mechanism LP
//! has `2·n·(n+1)` differential-privacy rows whose only α-dependent entry is
//! the `-α` coefficient; the Section 2.4.3 interaction LP keeps its row-sum
//! rows and objective fixed while its epigraph rows change with the deployed
//! mechanism `G_{n,α}`.
//!
//! Rebuilding such a model from scratch for every α re-runs every allocation
//! and coefficient computation of model construction. [`ModelTemplate`]
//! instead builds the model **once**, records which coefficients are
//! parameterized, and rewrites only those slots per solve — either in place
//! ([`ModelTemplate::set_parameter`], for sequential sweeps) or into a fresh
//! clone ([`ModelTemplate::instantiate`], for solving across threads).
//!
//! Equivalence guarantee relied on by the engine layer: a reparameterized
//! model and a freshly built model for the same parameter value produce the
//! same dense standard-form tableau (a retained term whose coefficient is set
//! to zero contributes exactly zero), hence the same pivot sequence and a
//! bit-identical [`Solution`] for exact scalars.

use privmech_linalg::Scalar;

use crate::model::{CoeffSlot, LpError, Model, Solution, Var};
use crate::simplex::SolverOptions;

/// A model plus the set of coefficient slots that scale with one scalar
/// parameter θ: each bound slot holds `scale · θ`.
///
/// The tailored-mechanism LP binds every differential-privacy row's second
/// term with `scale = -1`, so `set_parameter(α)` rewrites all `-α`
/// coefficients in one pass without touching the α-independent rows.
#[derive(Debug, Clone)]
pub struct ModelTemplate<T: Scalar> {
    model: Model<T>,
    slots: Vec<(CoeffSlot, T)>,
}

/// Write `scale · value` into each registered slot of `model` (the single
/// code path behind both in-place re-parameterization and instantiation).
fn write_slots<T: Scalar>(model: &mut Model<T>, slots: &[(CoeffSlot, T)], value: &T) {
    for (slot, scale) in slots {
        model.set_coeff(*slot, scale.mul_ref(value));
    }
}

impl<T: Scalar> ModelTemplate<T> {
    /// Wrap a fully built model whose parameterized slots will be registered
    /// with [`ModelTemplate::bind_scaled`].
    #[must_use]
    pub fn new(model: Model<T>) -> Self {
        ModelTemplate {
            model,
            slots: Vec::new(),
        }
    }

    /// Register the coefficient of `var` in constraint `constraint` as
    /// parameterized: every [`ModelTemplate::set_parameter`] call writes
    /// `scale · θ` into it.
    ///
    /// The term must exist (build the template with a nonzero placeholder
    /// coefficient so [`crate::model::LinExpr::add_term`]'s zero-dropping cannot remove it).
    pub fn bind_scaled(&mut self, constraint: usize, var: Var, scale: T) -> Result<(), LpError> {
        let slot = self.model.find_coeff_slot(constraint, var).ok_or_else(|| {
            LpError::Internal(format!(
                "cannot bind parameter slot: constraint #{constraint} has no term for \
                     variable #{}",
                var.index()
            ))
        })?;
        self.slots.push((slot, scale));
        Ok(())
    }

    /// Number of registered parameter slots.
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The underlying model at its current parameter value.
    #[must_use]
    pub fn model(&self) -> &Model<T> {
        &self.model
    }

    /// Write `scale · value` into every bound slot, in place.
    pub fn set_parameter(&mut self, value: &T) {
        write_slots(&mut self.model, &self.slots, value);
    }

    /// A standalone model at the given parameter value (for handing one model
    /// per worker thread in a parallel sweep).
    #[must_use]
    pub fn instantiate(&self, value: &T) -> Model<T> {
        let mut model = self.model.clone();
        write_slots(&mut model, &self.slots, value);
        model
    }

    /// Set the parameter and solve with the given options.
    pub fn solve_at(&mut self, value: &T, options: &SolverOptions) -> Result<Solution<T>, LpError> {
        self.set_parameter(value);
        self.model.solve_with(options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Relation, Sense, VarBound};
    use privmech_numerics::{rat, Rational};

    /// min x + y  s.t.  x >= θ, x + y >= 2, with θ swept over several values.
    fn theta_template() -> (ModelTemplate<Rational>, Var, Var) {
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        // Build with a placeholder coefficient 1 on the parameterized term.
        m.add_constraint(
            LinExpr::term(x, rat(1, 1)).plus(y, rat(1, 1)),
            Relation::Ge,
            rat(2, 1),
        )
        .unwrap();
        // x - θ·y >= 0, parameterized at the θ slot (scale -1).
        m.add_constraint(
            LinExpr::term(x, rat(1, 1)).plus(y, rat(-1, 1)),
            Relation::Ge,
            rat(0, 1),
        )
        .unwrap();
        m.set_objective(
            Sense::Minimize,
            LinExpr::term(x, rat(2, 1)).plus(y, rat(1, 1)),
        )
        .unwrap();
        let mut t = ModelTemplate::new(m);
        t.bind_scaled(1, y, rat(-1, 1)).unwrap();
        assert_eq!(t.num_slots(), 1);
        (t, x, y)
    }

    #[test]
    fn reparameterized_solves_match_fresh_builds() {
        let (mut template, x, y) = theta_template();
        let options = SolverOptions::default();
        for (num, den) in [(1i64, 2i64), (1, 3), (1, 1), (0, 1), (3, 4)] {
            let theta = rat(num, den);
            let warm = template.solve_at(&theta, &options).unwrap();
            // Fresh build at the same θ.
            let mut fresh: Model<Rational> = Model::new();
            let fx = fresh.add_var("x", VarBound::NonNegative);
            let fy = fresh.add_var("y", VarBound::NonNegative);
            fresh
                .add_constraint(
                    LinExpr::term(fx, rat(1, 1)).plus(fy, rat(1, 1)),
                    Relation::Ge,
                    rat(2, 1),
                )
                .unwrap();
            fresh
                .add_constraint(
                    LinExpr::term(fx, rat(1, 1)).plus(fy, -theta.clone()),
                    Relation::Ge,
                    rat(0, 1),
                )
                .unwrap();
            fresh
                .set_objective(
                    Sense::Minimize,
                    LinExpr::term(fx, rat(2, 1)).plus(fy, rat(1, 1)),
                )
                .unwrap();
            let cold = fresh.solve_with(&options).unwrap();
            assert_eq!(warm.objective, cold.objective, "theta = {theta}");
            assert_eq!(warm.value(x), cold.value(fx), "theta = {theta}");
            assert_eq!(warm.value(y), cold.value(fy), "theta = {theta}");
            // Identical models must take identical pivot paths.
            assert_eq!(warm.stats, cold.stats, "theta = {theta}");
        }
    }

    #[test]
    fn instantiate_matches_in_place_reparameterization() {
        let (mut template, x, _) = theta_template();
        let options = SolverOptions::default();
        let theta = rat(2, 3);
        let standalone = template.instantiate(&theta);
        let warm = template.solve_at(&theta, &options).unwrap();
        let cloned = standalone.solve_with(&options).unwrap();
        assert_eq!(warm, cloned);
        assert_eq!(warm.value(x), cloned.value(x));
    }

    #[test]
    fn binding_a_dropped_term_is_an_error() {
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        // y's coefficient is zero at build time, so the term is dropped.
        m.add_constraint(
            LinExpr::term(x, rat(1, 1)).plus(y, Rational::zero()),
            Relation::Ge,
            rat(1, 1),
        )
        .unwrap();
        let mut t = ModelTemplate::new(m);
        assert!(t.bind_scaled(0, y, rat(-1, 1)).is_err());
        assert!(t.bind_scaled(7, x, rat(-1, 1)).is_err());
    }

    #[test]
    fn replace_constraint_expr_swaps_rows() {
        let mut m: Model<Rational> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        m.add_constraint(LinExpr::term(x, rat(1, 1)), Relation::Le, rat(4, 1))
            .unwrap();
        m.set_objective(Sense::Maximize, LinExpr::term(x, rat(1, 1)))
            .unwrap();
        assert_eq!(m.solve().unwrap().objective, rat(4, 1));
        // Tighten the row: 2x <= 4.
        m.replace_constraint_expr(0, LinExpr::term(x, rat(2, 1)))
            .unwrap();
        assert_eq!(m.solve().unwrap().objective, rat(2, 1));
        // Out-of-range indices and foreign variables are rejected.
        assert!(m
            .replace_constraint_expr(3, LinExpr::term(x, rat(1, 1)))
            .is_err());
        assert!(m
            .replace_constraint_expr(0, LinExpr::term(Var(9), rat(1, 1)))
            .is_err());
    }

    #[test]
    fn find_coeff_slot_and_set_coeff() {
        let mut m: Model<f64> = Model::new();
        let x = m.add_var("x", VarBound::NonNegative);
        let y = m.add_var("y", VarBound::NonNegative);
        m.add_constraint(LinExpr::term(x, 1.0).plus(y, 2.0), Relation::Le, 3.0)
            .unwrap();
        assert!(m.find_coeff_slot(0, y).is_some());
        assert!(m.find_coeff_slot(1, y).is_none());
        let slot = m.find_coeff_slot(0, y).unwrap();
        m.set_coeff(slot, 5.0);
        m.set_objective(Sense::Maximize, LinExpr::term(y, 1.0))
            .unwrap();
        // y now limited by 5y <= 3.
        let sol = m.solve().unwrap();
        assert!((sol.objective - 0.6).abs() < 1e-9);
    }
}
