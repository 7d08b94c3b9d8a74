//! Shared structured-LP test generator: one corpus of paper-shaped models
//! that every differential suite (dense ≡ revised/CSR, refactorization
//! schedules) draws from, so the solvers are proven
//! against the *same* problems rather than each test file inventing its
//! own.
//!
//! The corpus covers the shapes the paper's mechanisms actually produce:
//!
//! * **DP-chain rows** with exactly two nonzeros (`v_i - α v_{i+1} >= 0`),
//!   the dominant row shape of the dynamic-programming reformulation;
//! * **epigraph rows dense over one prefix block** (`minimize_max` over
//!   cumulative loads), the minimax objective's footprint;
//! * **seeded random sparsity** — rows with 1–3 nonzeros at random columns,
//!   mixed relations, negative and zero right-hand sides;
//! * **degenerate vertices**: Beale's classic cycling LP;
//! * **wide coefficients**: numerators and denominators past 2⁶³ in the
//!   matrix, the right-hand sides and several costs, which push the revised
//!   form's integer products and pricing comparisons off machine words.
//!
//! Everything is deterministic: random models take an explicit `u64` seed
//! (xoshiro via the vendored `rand` shim), so a failing corpus entry can be
//! replayed by name + seed alone.

// Each test binary compiles this module independently and uses a subset of
// the corpus; the unused remainder is expected.
#![allow(dead_code)]

use privmech_linalg::Scalar;
use privmech_lp::{LinExpr, Model, Relation, Sense, VarBound};
use privmech_numerics::{rat, BigInt, Rational};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A random small LP mixing `<=`/`>=`/`==` rows, negative right-hand sides
/// (exercising the row-negation rewrite), zero-rhs `>=` rows (exercising the
/// slack-seeding rewrite and producing degenerate vertices), and a free
/// variable (exercising the column split). Driven by proptest-supplied
/// integer pools; kept bit-compatible with the PR 4 original so existing
/// regression seeds still reproduce.
pub fn random_model(coeffs: &[i64], rhs: &[i64], costs: &[i64], free_var: bool) -> Model<Rational> {
    let vars = 3usize;
    let mut m: Model<Rational> = Model::new();
    let mut xs = Vec::new();
    for k in 0..vars {
        let bound = if free_var && k == 0 {
            VarBound::Free
        } else {
            VarBound::NonNegative
        };
        xs.push(m.add_var(format!("x{k}"), bound));
    }
    for (i, b) in rhs.iter().enumerate() {
        let mut e = LinExpr::new();
        for (k, &x) in xs.iter().enumerate() {
            e.add_term(x, rat(coeffs[(i * vars + k) % coeffs.len()], 1));
        }
        let relation = match i % 3 {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        // Every third >= row gets a zero rhs: the paper's dominant row shape.
        let b = if relation == Relation::Ge && i % 2 == 0 {
            0
        } else {
            *b
        };
        m.add_constraint(e, relation, rat(b, 1)).unwrap();
    }
    let mut obj = LinExpr::new();
    for (k, &x) in xs.iter().enumerate() {
        obj.add_term(x, rat(costs[k % costs.len()], 1));
    }
    m.set_objective(Sense::Minimize, obj).unwrap();
    m
}

/// DP-recurrence chain: `stages + 1` value variables linked by rows with
/// exactly two nonzeros each, `v_i - α v_{i+1} >= 0`, plus one normalization
/// row `Σ v_i = 1`. Minimizing `v_0` drives the chain tight, so every
/// two-nonzero row is active at the optimum. `alpha = (num, den)` with
/// `0 < num < den`.
pub fn dp_chain_model<T: Scalar>(stages: usize, alpha: (i64, i64)) -> Model<T> {
    assert!(stages >= 1 && alpha.0 > 0 && alpha.0 < alpha.1);
    let mut m: Model<T> = Model::new();
    let vs = m.add_nonneg_vars("v", stages + 1);
    for i in 0..stages {
        let e = LinExpr::term(vs[i], T::from_ratio(1, 1))
            .plus(vs[i + 1], T::from_ratio(-alpha.0, alpha.1));
        m.add_constraint(e, Relation::Ge, T::zero()).unwrap();
    }
    let mut sum = LinExpr::new();
    for &v in &vs {
        sum.add_term(v, T::from_ratio(1, 1));
    }
    m.add_constraint(sum, Relation::Eq, T::from_ratio(1, 1))
        .unwrap();
    m.set_objective(Sense::Minimize, LinExpr::term(vs[0], T::from_ratio(1, 1)))
        .unwrap();
    m
}

/// Minimax load balancing with epigraph rows dense over one prefix block:
/// `minimize_max` over *cumulative* loads `Σ_{j<=i} w_j x_j`, subject to
/// `Σ x_i = total`. Row `i` of the epigraph block carries `i + 2` nonzeros
/// (the prefix plus the epigraph variable), giving the corpus its one
/// dense-block shape.
pub fn epigraph_block_model<T: Scalar>(weights: &[i64], total: i64) -> Model<T> {
    assert!(!weights.is_empty() && weights.iter().all(|&w| w > 0));
    let mut m: Model<T> = Model::new();
    let xs = m.add_nonneg_vars("x", weights.len());
    let mut sum = LinExpr::new();
    for &x in &xs {
        sum.add_term(x, T::from_ratio(1, 1));
    }
    m.add_constraint(sum, Relation::Eq, T::from_ratio(total, 1))
        .unwrap();
    let mut exprs = Vec::new();
    let mut prefix = LinExpr::new();
    for (&x, &w) in xs.iter().zip(weights.iter()) {
        prefix.add_term(x, T::from_ratio(w, 1));
        exprs.push(prefix.clone());
    }
    m.minimize_max(exprs).unwrap();
    m
}

/// Seeded random-sparsity LP: `rows` constraints over `vars` variables, each
/// row holding 1–3 nonzeros at distinct random columns with coefficients in
/// `[-4, 4] \ {0}`, relations drawn uniformly, right-hand sides in
/// `[-6, 6]` with `>=` rows biased toward zero rhs. Variable 0 is free on
/// odd seeds. Deterministic in `seed`.
pub fn random_sparse_model(seed: u64, vars: usize, rows: usize) -> Model<Rational> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m: Model<Rational> = Model::new();
    let mut xs = Vec::new();
    for k in 0..vars {
        let bound = if seed % 2 == 1 && k == 0 {
            VarBound::Free
        } else {
            VarBound::NonNegative
        };
        xs.push(m.add_var(format!("x{k}"), bound));
    }
    for _ in 0..rows {
        let nnz = rng.gen_range(1..=3usize.min(vars));
        let mut cols: Vec<usize> = Vec::new();
        while cols.len() < nnz {
            let c = rng.gen_range(0..vars);
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        let mut e = LinExpr::new();
        for &c in &cols {
            let mut coeff = 0i64;
            while coeff == 0 {
                coeff = rng.gen_range(-4i64..=4);
            }
            e.add_term(xs[c], rat(coeff, 1));
        }
        let relation = match rng.gen_range(0..3u32) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let b = if relation == Relation::Ge && rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(-6i64..=6)
        };
        m.add_constraint(e, relation, rat(b, 1)).unwrap();
    }
    let mut obj = LinExpr::new();
    for &x in &xs {
        obj.add_term(x, rat(rng.gen_range(-3i64..=5), 1));
    }
    m.set_objective(Sense::Minimize, obj).unwrap();
    m
}

/// Beale's classic cycling LP (max `10a - 57b - 9c - 24d`), the corpus's
/// degenerate-vertex entry: without anti-cycling the dense tableau loops
/// forever, so it pins the Bland-fallback machinery on both drivers.
pub fn beale_degenerate_model() -> Model<Rational> {
    let mut m: Model<Rational> = Model::new();
    let a = m.add_var("a", VarBound::NonNegative);
    let b = m.add_var("b", VarBound::NonNegative);
    let c = m.add_var("c", VarBound::NonNegative);
    let d = m.add_var("d", VarBound::NonNegative);
    m.add_constraint(
        LinExpr::term(a, rat(1, 2))
            .plus(b, rat(-11, 2))
            .plus(c, rat(-5, 2))
            .plus(d, rat(9, 1)),
        Relation::Le,
        Rational::zero(),
    )
    .unwrap();
    m.add_constraint(
        LinExpr::term(a, rat(1, 2))
            .plus(b, rat(-3, 2))
            .plus(c, rat(-1, 2))
            .plus(d, rat(1, 1)),
        Relation::Le,
        Rational::zero(),
    )
    .unwrap();
    m.add_constraint(LinExpr::term(a, rat(1, 1)), Relation::Le, rat(1, 1))
        .unwrap();
    m.set_objective(
        Sense::Maximize,
        LinExpr::term(a, rat(10, 1))
            .plus(b, rat(-57, 1))
            .plus(c, rat(-9, 1))
            .plus(d, rat(-24, 1)),
    )
    .unwrap();
    m
}

/// `±(2^64 + δ)` or `±(2^128 + δ)` now and then, else a small `±δ`, over a
/// denominator that is small or, now and then, `2^64 + d`: values whose
/// numerators or denominators do not fit `i64`.
pub fn wide_entry(rng: &mut StdRng) -> Rational {
    let delta = BigInt::from(rng.gen_range(1i64..100));
    let magnitude = match rng.gen_range(0u32..6) {
        0 => &BigInt::one().shl_bits(64) + &delta,
        1 => &BigInt::one().shl_bits(128) + &delta,
        _ => delta,
    };
    let small_den = BigInt::from([1i64, 2, 3, 7, 9][rng.gen_range(0usize..5)]);
    let den = match rng.gen_range(0u32..5) {
        0 => &BigInt::one().shl_bits(64) + &small_den,
        _ => small_den,
    };
    let num = if rng.gen_bool(0.5) {
        -magnitude
    } else {
        magnitude
    };
    Rational::new(num, den)
}

/// Seeded LP over `vars` non-negative variables with [`wide_entry`]
/// coefficients: `rows` constraints of 2–3 nonzeros with mixed relations,
/// feasible by construction (each right-hand side is set off a fixed
/// positive point, tight on `==` rows and on some inequalities), a budget
/// row `Σ x_k <= 2^70` that keeps it bounded, and a nonzero wide cost on
/// every variable. Deterministic in `seed`.
pub fn wide_coefficient_model(seed: u64, vars: usize, rows: usize) -> Model<Rational> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m: Model<Rational> = Model::new();
    let xs = m.add_nonneg_vars("x", vars);
    let point: Vec<Rational> = (0..vars).map(|_| rat(rng.gen_range(1i64..5), 1)).collect();
    for _ in 0..rows {
        let nnz = rng.gen_range(2..=3usize.min(vars));
        let mut cols: Vec<usize> = Vec::new();
        while cols.len() < nnz {
            let c = rng.gen_range(0..vars);
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        let mut e = LinExpr::new();
        let mut at_point = Rational::zero();
        for &c in &cols {
            let a = wide_entry(&mut rng);
            at_point += &a * &point[c];
            e.add_term(xs[c], a);
        }
        let margin = if rng.gen_bool(0.5) {
            Rational::zero()
        } else {
            wide_entry(&mut rng).abs()
        };
        let (relation, rhs) = match rng.gen_range(0..3u32) {
            0 => (Relation::Ge, &at_point - &margin),
            1 => (Relation::Le, &at_point + &margin),
            _ => (Relation::Eq, at_point),
        };
        m.add_constraint(e, relation, rhs).unwrap();
    }
    let mut budget = LinExpr::new();
    for &x in &xs {
        budget.add_term(x, rat(1, 1));
    }
    let cap = Rational::new(BigInt::one().shl_bits(70), BigInt::one());
    m.add_constraint(budget, Relation::Le, cap).unwrap();
    let mut obj = LinExpr::new();
    for &x in &xs {
        obj.add_term(x, wide_entry(&mut rng));
    }
    m.set_objective(Sense::Minimize, obj).unwrap();
    m
}

/// The full structured corpus for a given seed: every paper shape plus a
/// handful of seeded random-sparsity instances. Entry names are stable so a
/// failure report identifies the model without dumping it.
pub fn structured_corpus(seed: u64) -> Vec<(String, Model<Rational>)> {
    let mut corpus: Vec<(String, Model<Rational>)> = vec![
        ("dp_chain_4_alpha_1_2".into(), dp_chain_model(4, (1, 2))),
        ("dp_chain_7_alpha_2_3".into(), dp_chain_model(7, (2, 3))),
        (
            "epigraph_block_3".into(),
            epigraph_block_model(&[1, 2, 3], 6),
        ),
        (
            "epigraph_block_5".into(),
            epigraph_block_model(&[3, 1, 4, 1, 5], 10),
        ),
        ("beale_degenerate".into(), beale_degenerate_model()),
    ];
    for k in 0..4u64 {
        let s = seed.wrapping_mul(4).wrapping_add(k);
        corpus.push((
            format!("random_sparse_seed_{s}"),
            random_sparse_model(s, 4, 5),
        ));
    }
    for k in 0..6u64 {
        let s = seed.wrapping_mul(6).wrapping_add(k);
        corpus.push((
            format!("wide_coefficient_seed_{s}"),
            wide_coefficient_model(s, 5, 5),
        ));
    }
    corpus
}
