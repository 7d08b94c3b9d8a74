//! Property-based and randomized tests for the simplex solver: feasibility of
//! returned solutions, optimality certificates on problem families with known
//! closed-form optima, and agreement between the exact and floating-point
//! backends.

use privmech_lp::{LinExpr, Model, Relation, Sense, VarBound};
use privmech_numerics::{rat, Rational};
use proptest::prelude::*;

mod common;
use common::{beale_degenerate_model, random_model, structured_corpus};

/// Check that a solution satisfies every constraint of the model it came from.
fn assert_feasible_rational(
    model: &Model<Rational>,
    values: &[Rational],
    constraints: &[(LinExpr<Rational>, Relation, Rational)],
) {
    let _ = model;
    for (expr, rel, rhs) in constraints {
        let lhs = expr.evaluate(values);
        match rel {
            Relation::Le => assert!(lhs <= *rhs, "violated: {lhs} <= {rhs}"),
            Relation::Ge => assert!(lhs >= *rhs, "violated: {lhs} >= {rhs}"),
            Relation::Eq => assert_eq!(lhs, *rhs),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Transportation-style LP with known optimum: ship `demand` units from
    /// two sources with capacities `cap0`, `cap1` and unit costs `c0 < c1`.
    /// The optimum greedily fills the cheaper source first.
    #[test]
    fn greedy_transportation_optimum(
        cap0 in 1i64..=20,
        cap1 in 1i64..=20,
        demand_frac in 1i64..=10,
        c0 in 1i64..=5,
        dc in 1i64..=5,
    ) {
        let total = cap0 + cap1;
        let demand = (total * demand_frac) / 10;
        prop_assume!(demand >= 1);
        let c1 = c0 + dc;

        let mut m: Model<Rational> = Model::new();
        let x0 = m.add_var("x0", VarBound::NonNegative);
        let x1 = m.add_var("x1", VarBound::NonNegative);
        m.add_constraint(LinExpr::term(x0, rat(1, 1)), Relation::Le, rat(cap0, 1)).unwrap();
        m.add_constraint(LinExpr::term(x1, rat(1, 1)), Relation::Le, rat(cap1, 1)).unwrap();
        m.add_constraint(
            LinExpr::term(x0, rat(1, 1)).plus(x1, rat(1, 1)),
            Relation::Eq,
            rat(demand, 1),
        ).unwrap();
        m.set_objective(
            Sense::Minimize,
            LinExpr::term(x0, rat(c0, 1)).plus(x1, rat(c1, 1)),
        ).unwrap();

        let sol = m.solve().unwrap();
        let from_cheap = demand.min(cap0);
        let from_expensive = demand - from_cheap;
        let expected = c0 * from_cheap + c1 * from_expensive;
        prop_assert_eq!(sol.objective, rat(expected, 1));
    }

    /// Random feasible LPs: minimize a non-negative cost over a standard
    /// simplex-like region. The returned point must satisfy every constraint
    /// and achieve an objective no larger than any of a set of random feasible
    /// points (a weak but broad optimality sanity check).
    #[test]
    fn solution_is_feasible_and_not_dominated(
        costs in prop::collection::vec(0i64..=9, 4),
        budget in 1i64..=12,
        probe in prop::collection::vec(0i64..=3, 4),
    ) {
        let mut m: Model<Rational> = Model::new();
        let vars = m.add_nonneg_vars("x", 4);
        // sum x_i == budget, x_i <= budget.
        let mut sum_expr = LinExpr::new();
        for &v in &vars {
            sum_expr.add_term(v, rat(1, 1));
        }
        let mut constraints = Vec::new();
        constraints.push((sum_expr.clone(), Relation::Eq, rat(budget, 1)));
        m.add_constraint(sum_expr, Relation::Eq, rat(budget, 1)).unwrap();
        for &v in &vars {
            let e = LinExpr::term(v, rat(1, 1));
            constraints.push((e.clone(), Relation::Le, rat(budget, 1)));
            m.add_constraint(e, Relation::Le, rat(budget, 1)).unwrap();
        }
        let mut obj = LinExpr::new();
        for (v, &c) in vars.iter().zip(costs.iter()) {
            obj.add_term(*v, rat(c, 1));
        }
        m.set_objective(Sense::Minimize, obj.clone()).unwrap();
        let sol = m.solve().unwrap();
        assert_feasible_rational(&m, &sol.values, &constraints);

        // The optimum puts all mass on the cheapest coordinate.
        let min_cost = *costs.iter().min().unwrap();
        prop_assert_eq!(sol.objective.clone(), rat(min_cost * budget, 1));

        // Any feasible probe point must not beat the reported optimum.
        let probe_sum: i64 = probe.iter().sum();
        if probe_sum > 0 {
            let probe_point: Vec<Rational> = probe
                .iter()
                .map(|&p| rat(p * budget, probe_sum))
                .collect();
            let probe_obj = obj.evaluate(&probe_point);
            prop_assert!(sol.objective <= probe_obj);
        }
    }

    /// The exact and f64 backends agree on random small LPs (within tolerance).
    #[test]
    fn exact_and_float_backends_agree(
        a in prop::collection::vec(1i64..=9, 6),
        b in prop::collection::vec(2i64..=15, 3),
        c in prop::collection::vec(1i64..=9, 2),
    ) {
        // min c.x s.t. A x >= b (3 constraints, 2 vars), x >= 0.
        let mut mr: Model<Rational> = Model::new();
        let xr = mr.add_nonneg_vars("x", 2);
        let mut mf: Model<f64> = Model::new();
        let xf = mf.add_nonneg_vars("x", 2);
        for i in 0..3 {
            let er = LinExpr::term(xr[0], rat(a[2 * i], 1)).plus(xr[1], rat(a[2 * i + 1], 1));
            let ef = LinExpr::term(xf[0], a[2 * i] as f64).plus(xf[1], a[2 * i + 1] as f64);
            mr.add_constraint(er, Relation::Ge, rat(b[i], 1)).unwrap();
            mf.add_constraint(ef, Relation::Ge, b[i] as f64).unwrap();
        }
        mr.set_objective(
            Sense::Minimize,
            LinExpr::term(xr[0], rat(c[0], 1)).plus(xr[1], rat(c[1], 1)),
        ).unwrap();
        mf.set_objective(
            Sense::Minimize,
            LinExpr::term(xf[0], c[0] as f64).plus(xf[1], c[1] as f64),
        ).unwrap();
        let sr = mr.solve().unwrap();
        let sf = mf.solve().unwrap();
        prop_assert!((sr.objective.to_f64() - sf.objective).abs() < 1e-6);
    }

    /// minimize_max: the epigraph optimum equals the explicit maximum of the
    /// expressions evaluated at the returned point, and no probe point does
    /// strictly better.
    #[test]
    fn minimize_max_certificate(
        weights in prop::collection::vec(1i64..=9, 3),
        total in 2i64..=10,
    ) {
        // Balance load: minimize max_i (w_i * x_i) subject to sum x_i = total.
        let mut m: Model<Rational> = Model::new();
        let vars = m.add_nonneg_vars("x", 3);
        let mut sum_expr = LinExpr::new();
        for &v in &vars {
            sum_expr.add_term(v, rat(1, 1));
        }
        m.add_constraint(sum_expr, Relation::Eq, rat(total, 1)).unwrap();
        let exprs: Vec<LinExpr<Rational>> = vars
            .iter()
            .zip(weights.iter())
            .map(|(&v, &w)| LinExpr::term(v, rat(w, 1)))
            .collect();
        m.minimize_max(exprs.clone()).unwrap();
        let sol = m.solve().unwrap();
        let achieved = exprs
            .iter()
            .map(|e| e.evaluate(&sol.values))
            .max()
            .unwrap();
        prop_assert_eq!(achieved.clone(), sol.objective.clone());
        // Closed form: optimum is total / sum_i (1/w_i).
        let denom: Rational = weights
            .iter()
            .fold(Rational::zero(), |acc, &w| acc + rat(1, w));
        let expected = rat(total, 1) / denom;
        prop_assert_eq!(sol.objective, expected);
    }
}

// ---------------------------------------------------------------------------
// Dense ≡ revised identity contract (PR 4).
//
// The revised simplex must follow the *identical pivot sequence* as the dense
// tableau — same entering column and leaving position at every iteration,
// phases included — and refactorization must be unobservable. These
// properties back the SOLVER.md contract that lets `SolverForm` stay out of
// request fingerprints and cache keys.
// ---------------------------------------------------------------------------

use privmech_lp::{solve_model_traced, SolverForm, SolverOptions};

fn with_form(form: SolverForm) -> SolverOptions {
    SolverOptions {
        form,
        ..SolverOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline contract: dense and revised return the same `Result` —
    /// bit-identical solution, stats, *and pivot-for-pivot trace* on
    /// success; the same error (infeasible/unbounded) otherwise.
    #[test]
    fn dense_and_revised_pivot_sequences_are_identical(
        coeffs in prop::collection::vec(-4i64..=4, 9),
        rhs in prop::collection::vec(-6i64..=6, 5),
        costs in prop::collection::vec(-3i64..=5, 3),
        free_var in any::<bool>(),
    ) {
        let m = random_model(&coeffs, &rhs, &costs, free_var);
        let dense = solve_model_traced(&m, &with_form(SolverForm::Dense));
        let revised = solve_model_traced(&m, &SolverOptions::default());
        prop_assert_eq!(dense, revised);
    }

    /// Refactorization boundaries: refactorizing after every pivot, on the
    /// default trigger, or never must be completely unobservable — identical
    /// solutions and identical pivot sequences.
    #[test]
    fn refactorization_frequency_is_unobservable(
        coeffs in prop::collection::vec(-4i64..=4, 9),
        rhs in prop::collection::vec(-6i64..=6, 5),
        costs in prop::collection::vec(-3i64..=5, 3),
        free_var in any::<bool>(),
    ) {
        let m = random_model(&coeffs, &rhs, &costs, free_var);
        let every_pivot = solve_model_traced(&m, &SolverOptions {
            refactor_interval: 1,
            ..SolverOptions::default()
        });
        let default_trigger = solve_model_traced(&m, &SolverOptions::default());
        let never = solve_model_traced(&m, &SolverOptions {
            refactor_interval: SolverOptions::NEVER_REFACTOR,
            ..SolverOptions::default()
        });
        prop_assert_eq!(&every_pivot, &default_trigger);
        prop_assert_eq!(&default_trigger, &never);
    }

    /// Refactorization-interval boundary sweep for the LU/Forrest–Tomlin
    /// factorization (the only basis representation): these models take a
    /// handful of pivots, so intervals 1 through 8 put a refactorization
    /// boundary after every pivot position, and each must reproduce the
    /// never-refactorized run's pivot trace. (The optimum itself is
    /// certificate-checked by the lp unit test
    /// `default_solves_carry_an_optimality_certificate`.)
    #[test]
    fn factorization_kind_is_unobservable_at_every_refactor_boundary(
        coeffs in prop::collection::vec(-4i64..=4, 9),
        rhs in prop::collection::vec(-6i64..=6, 5),
        costs in prop::collection::vec(-3i64..=5, 3),
        free_var in any::<bool>(),
    ) {
        let m = random_model(&coeffs, &rhs, &costs, free_var);
        let reference = solve_model_traced(&m, &SolverOptions {
            refactor_interval: SolverOptions::NEVER_REFACTOR,
            ..SolverOptions::default()
        });
        for interval in 1..=8 {
            let run = solve_model_traced(&m, &SolverOptions {
                refactor_interval: interval,
                ..SolverOptions::default()
            });
            prop_assert_eq!(&reference, &run, "interval {} diverged", interval);
        }
    }

    /// The f64 backend routes every `SolverForm` onto the dense tableau (a
    /// float FTRAN/BTRAN rounds differently than a float tableau update), so
    /// both forms — and all refactorization intervals — must return
    /// byte-identical results there too.
    #[test]
    fn f64_solver_form_is_inert(
        a in prop::collection::vec(1i64..=9, 6),
        b in prop::collection::vec(1i64..=15, 3),
        c in prop::collection::vec(1i64..=9, 2),
    ) {
        let mut m: Model<f64> = Model::new();
        let xs = m.add_nonneg_vars("x", 2);
        for i in 0..3 {
            let e = LinExpr::term(xs[0], a[2 * i] as f64).plus(xs[1], a[2 * i + 1] as f64);
            m.add_constraint(e, Relation::Ge, b[i] as f64).unwrap();
        }
        m.set_objective(
            Sense::Minimize,
            LinExpr::term(xs[0], c[0] as f64).plus(xs[1], c[1] as f64),
        ).unwrap();
        let auto = solve_model_traced(&m, &with_form(SolverForm::Auto)).unwrap();
        let dense = solve_model_traced(&m, &with_form(SolverForm::Dense)).unwrap();
        let every_pivot = solve_model_traced(&m, &SolverOptions {
            refactor_interval: 1,
            ..SolverOptions::default()
        }).unwrap();
        prop_assert_eq!(&auto, &dense);
        prop_assert_eq!(&dense, &every_pivot);
    }
}

/// Beale's cycling LP under the revised form at every refactorization
/// frequency: the degenerate-vertex fallback machinery (streak counting,
/// Bland engagement) must fire identically across forms and frequencies.
#[test]
fn degenerate_cycling_lp_identical_across_forms_and_frequencies() {
    // max 10a - 57b - 9c - 24d subject to Beale's rows (shared corpus entry);
    // forced tiny streak limit so the fallback engages.
    let m = beale_degenerate_model();

    let run = |form: SolverForm, interval: usize| {
        solve_model_traced(
            &m,
            &SolverOptions {
                form,
                refactor_interval: interval,
                degeneracy_streak_limit: 1,
                ..SolverOptions::default()
            },
        )
        .unwrap()
    };
    let reference = run(SolverForm::Dense, 64);
    assert_eq!(reference.0.objective, rat(1, 1));
    assert!(reference.0.stats.fallback_activations > 0 || reference.0.stats.degenerate_pivots > 0);
    for interval in [1, 64, SolverOptions::NEVER_REFACTOR] {
        let revised = run(SolverForm::Auto, interval);
        assert_eq!(reference, revised, "interval {interval}");
    }
}

// ---------------------------------------------------------------------------
// Shared-corpus CSR ≡ dense contract (PR 8).
//
// The revised driver now pulls entering columns straight out of the CSR
// constraint store, so the pivot-identity contract doubles as the proof that
// the sparse store represents exactly the matrix the dense tableau scatters.
// Both suites below run over the *same* structured corpus as the generators
// above — paper-shaped DP chains, one-block-dense epigraph rows, seeded
// random sparsity, and Beale's degenerate LP.
// ---------------------------------------------------------------------------

/// Every corpus entry: the CSR-backed revised driver must return the exact
/// `Result` of the dense oracle — bit-identical solution, stats, and pivot
/// trace — at every refactorization frequency, on the exact backend.
#[test]
fn structured_corpus_csr_revised_matches_dense_oracle() {
    for (name, m) in structured_corpus(0xC5B8) {
        let dense = solve_model_traced(&m, &with_form(SolverForm::Dense));
        for interval in [
            1,
            SolverOptions::default().refactor_interval,
            SolverOptions::NEVER_REFACTOR,
        ] {
            let revised = solve_model_traced(
                &m,
                &SolverOptions {
                    refactor_interval: interval,
                    ..SolverOptions::default()
                },
            );
            assert_eq!(
                dense, revised,
                "{name}: interval {interval} diverged from dense oracle"
            );
        }
    }
}

/// The generic corpus shapes on the `f64` backend: every `SolverForm` and
/// refactorization interval must be byte-for-byte inert there too (the float
/// path routes all forms onto the dense tableau).
#[test]
fn structured_corpus_f64_shapes_match_dense_oracle() {
    let corpus: Vec<(&str, Model<f64>)> = vec![
        ("dp_chain_4_alpha_1_2", common::dp_chain_model(4, (1, 2))),
        ("dp_chain_7_alpha_2_3", common::dp_chain_model(7, (2, 3))),
        (
            "epigraph_block_3",
            common::epigraph_block_model(&[1, 2, 3], 6),
        ),
        (
            "epigraph_block_5",
            common::epigraph_block_model(&[3, 1, 4, 1, 5], 10),
        ),
    ];
    for (name, m) in corpus {
        let dense = solve_model_traced(&m, &with_form(SolverForm::Dense));
        for interval in [1, SolverOptions::NEVER_REFACTOR] {
            let auto = solve_model_traced(
                &m,
                &SolverOptions {
                    refactor_interval: interval,
                    ..SolverOptions::default()
                },
            );
            assert_eq!(dense, auto, "{name}: f64 at interval {interval} diverged");
        }
    }
}

/// The wide-coefficient corpus entries (numerators and denominators past
/// 2⁶³ in matrix, right-hand sides and costs) must reach both phases, so
/// that the revised form's wide integer paths are what the dense oracle
/// checks in `structured_corpus_csr_revised_matches_dense_oracle`.
#[test]
fn wide_coefficient_corpus_pivots_in_both_phases() {
    use privmech_lp::TracePhase;
    let (mut phase1, mut phase2) = (0, 0);
    for (name, m) in structured_corpus(0xC5B8) {
        if !name.starts_with("wide_coefficient") {
            continue;
        }
        if let Ok((_, trace)) = solve_model_traced(&m, &SolverOptions::default()) {
            phase1 += trace
                .iter()
                .filter(|r| r.phase == TracePhase::Phase1)
                .count();
            phase2 += trace
                .iter()
                .filter(|r| r.phase == TracePhase::Phase2)
                .count();
        }
    }
    assert!(
        phase1 > 0 && phase2 > 0,
        "phase 1: {phase1}, phase 2: {phase2} pivots"
    );
}

/// A column whose entries are thirds (`E_j = 3`) and one whose entries are
/// integers (`E_j = 1`), in either order, tied in phase 1: the `==` rows
/// `(2/3)·t + u = 1` and `(1/3)·t + (1/2)·w = 1` give both `t` and `u` the
/// phase-1 reduced cost `−1`.
fn phase1_tie_model(thirds_first: bool) -> Model<Rational> {
    let mut m: Model<Rational> = Model::new();
    let (t, u) = if thirds_first {
        let t = m.add_var("t", VarBound::NonNegative);
        (t, m.add_var("u", VarBound::NonNegative))
    } else {
        let u = m.add_var("u", VarBound::NonNegative);
        (m.add_var("t", VarBound::NonNegative), u)
    };
    let w = m.add_var("w", VarBound::NonNegative);
    m.add_constraint(
        LinExpr::term(t, rat(2, 3)).plus(u, rat(1, 1)),
        Relation::Eq,
        rat(1, 1),
    )
    .unwrap();
    m.add_constraint(
        LinExpr::term(t, rat(1, 3)).plus(w, rat(1, 2)),
        Relation::Eq,
        rat(1, 1),
    )
    .unwrap();
    m.set_objective(
        Sense::Minimize,
        LinExpr::term(t, rat(1, 1))
            .plus(u, rat(2, 1))
            .plus(w, rat(1, 1)),
    )
    .unwrap();
    m
}

/// The same pair tied in phase 2 (slack seeds only, so no phase 1): both
/// cost `−1`, `t`'s entries are thirds and `u`'s integers.
fn phase2_tie_model(thirds_first: bool) -> Model<Rational> {
    let mut m: Model<Rational> = Model::new();
    let (t, u) = if thirds_first {
        let t = m.add_var("t", VarBound::NonNegative);
        (t, m.add_var("u", VarBound::NonNegative))
    } else {
        let u = m.add_var("u", VarBound::NonNegative);
        (m.add_var("t", VarBound::NonNegative), u)
    };
    m.add_constraint(
        LinExpr::term(t, rat(1, 3)).plus(u, rat(1, 1)),
        Relation::Le,
        rat(4, 1),
    )
    .unwrap();
    m.add_constraint(LinExpr::term(t, rat(4, 3)), Relation::Le, rat(8, 1))
        .unwrap();
    m.add_constraint(LinExpr::term(u, rat(1, 1)), Relation::Le, rat(3, 1))
        .unwrap();
    m.set_objective(
        Sense::Minimize,
        LinExpr::term(t, rat(-1, 1)).plus(u, rat(-1, 1)),
    )
    .unwrap();
    m
}

/// Exact ties between equal reduced costs written over different column
/// denominators `E_j`: the revised form compares them by cross
/// multiplication, the dense form as canonical rationals, and both must
/// enter the smaller index — column 0, whichever of the pair it is — in
/// phase 1 and phase 2, under Dantzig pricing and under Bland's rule, with
/// identical traces throughout.
#[test]
fn exact_ties_across_column_denominators_enter_the_smaller_index() {
    use privmech_lp::{PricingRule, TracePhase};
    let models = [
        (
            TracePhase::Phase1,
            phase1_tie_model as fn(bool) -> Model<Rational>,
        ),
        (TracePhase::Phase2, phase2_tie_model),
    ];
    for (phase, build) in models {
        for thirds_first in [false, true] {
            let m = build(thirds_first);
            for pricing in [PricingRule::DantzigWithBlandFallback, PricingRule::Bland] {
                let options = SolverOptions {
                    pricing,
                    ..SolverOptions::default()
                };
                let dense = solve_model_traced(
                    &m,
                    &SolverOptions {
                        form: SolverForm::Dense,
                        ..options
                    },
                );
                let revised = solve_model_traced(&m, &options);
                assert_eq!(
                    dense, revised,
                    "{phase:?}, thirds first {thirds_first}, {pricing:?}"
                );
                let (_, trace) = revised.unwrap();
                let first = trace.iter().find(|r| r.phase == phase).unwrap();
                assert_eq!(
                    first.entering, 0,
                    "{phase:?}, thirds first {thirds_first}, {pricing:?}"
                );
            }
        }
    }
}
