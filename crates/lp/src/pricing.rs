//! Entering-column pricing: the first stage of a simplex iteration.
//!
//! Both solver forms price entering columns from the same exact reduced
//! costs `d = c − c_Bᵀ B⁻¹ A`, read through the [`ReducedCosts`] view. The
//! dense tableau keeps `d` as its objective row (a `&[T]` slice); the
//! revised solver recomputes it every iteration from the simplex
//! multipliers and keeps it unnormalized over a common scale
//! ([`crate::pivot_row::ScaledCosts`]). Both views answer the three
//! questions the rules ask — the sign of `d_j`, the exact order of two
//! entries, and `d_j` in `f64` — with the same values, and this module is
//! the single implementation of the entering rules, so the two forms
//! select the same entering column at every iteration: one half of the
//! dense ≡ revised pivot-sequence contract (`crates/lp/SOLVER.md`; the
//! other half is the shared ratio test in [`crate::ratio`]).
//!
//! The rules themselves, and the Dantzig ↔ Bland fallback state machine,
//! are documented on [`PricingRule`] and in the `crate::simplex` module docs.

use privmech_linalg::Scalar;

use crate::simplex::{PivotStats, PricingRule, SolverOptions};

/// The reduced costs of the current phase, by column, as the entering
/// rules read them.
pub(crate) trait ReducedCosts {
    /// Whether `d_j` is negative (under the scalar's tolerance).
    fn is_negative(&self, j: usize) -> bool;
    /// Whether `d_a < d_b`.
    fn less(&self, a: usize, b: usize) -> bool;
    /// `d_j` as an `f64` (the devex score).
    fn to_f64(&self, j: usize) -> f64;
}

/// The dense form's objective row.
impl<T: Scalar> ReducedCosts for [T] {
    fn is_negative(&self, j: usize) -> bool {
        self[j].is_negative_approx()
    }
    fn less(&self, a: usize, b: usize) -> bool {
        self[a] < self[b]
    }
    fn to_f64(&self, j: usize) -> f64 {
        self[j].to_f64()
    }
}

/// Entering column under Bland's rule: smallest index with a negative
/// reduced cost, skipping banned columns.
fn entering_bland<R: ReducedCosts + ?Sized>(
    reduced: &R,
    banned: &[bool],
    cols: usize,
) -> Option<usize> {
    (0..cols).find(|&j| !banned[j] && reduced.is_negative(j))
}

/// Entering column under Dantzig pricing: most negative reduced cost (ties
/// broken towards the smaller index), skipping banned columns.
fn entering_dantzig<R: ReducedCosts + ?Sized>(
    reduced: &R,
    banned: &[bool],
    cols: usize,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (j, &ban) in banned[..cols].iter().enumerate() {
        if ban || !reduced.is_negative(j) {
            continue;
        }
        match best {
            None => best = Some(j),
            Some(b) => {
                if reduced.less(j, b) {
                    best = Some(j);
                }
            }
        }
    }
    best
}

/// Entering column under devex pricing: maximize `d_j² / w_j` over the
/// columns with a negative reduced cost (ties broken towards the smaller
/// index), skipping banned columns.
///
/// The score is evaluated in `f64` even on exact backends: every candidate
/// has an **exactly** negative reduced cost (the sign test runs on the exact
/// value), so an imprecise score can only change *which* improving column
/// enters — never admit a non-improving one. Correctness of the final
/// solution is asserted by the exact optimality certificate
/// ([`crate::certificate`]); termination by the same Bland fallback that
/// guards Dantzig pricing.
fn entering_devex<R: ReducedCosts + ?Sized>(
    reduced: &R,
    banned: &[bool],
    cols: usize,
    weights: &[f64],
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for j in 0..cols {
        if banned[j] || !reduced.is_negative(j) {
            continue;
        }
        let d = reduced.to_f64(j);
        let score = d * d / weights[j].max(1.0);
        match best {
            Some((_, s)) if score <= s => {}
            _ => best = Some((j, score)),
        }
    }
    best.map(|(j, _)| j)
}

/// The pricing state machine, shared verbatim by both solver forms: Dantzig
/// or devex selection with the Bland anti-cycling fallback, plus the devex
/// reference weights when that rule is active.
///
/// Aggressive (non-Bland) pricing only engages for exact scalars (see the
/// `crate::simplex` module docs for why the `f64` backend always prices by
/// Bland's rule). A streak of more than
/// [`SolverOptions::degeneracy_streak_limit`] consecutive degenerate pivots
/// switches to Bland's anti-cycling rule; the first objective-improving
/// pivot switches back.
pub(crate) struct FallbackState {
    bland_mode: bool,
    aggressive_allowed: bool,
    /// Devex reference weights, one per column, lazily sized at the first
    /// selection. `Some` iff the configured rule is [`PricingRule::Devex`]
    /// (and aggressive pricing is allowed for this scalar type).
    devex_weights: Option<Vec<f64>>,
    degenerate_streak: usize,
    limit: usize,
}

impl FallbackState {
    /// Initial pricing state for one phase of a solve with scalar type `T`.
    pub(crate) fn new<T: Scalar>(options: &SolverOptions) -> Self {
        let aggressive_allowed = options.pricing != PricingRule::Bland && T::is_exact();
        let devex_weights =
            (aggressive_allowed && options.pricing == PricingRule::Devex).then(Vec::new);
        FallbackState {
            bland_mode: !aggressive_allowed,
            aggressive_allowed,
            devex_weights,
            degenerate_streak: 0,
            limit: options.degeneracy_streak_limit,
        }
    }

    /// Whether the *next* selection (and its ratio-test tie-break) uses
    /// Bland's rule.
    pub(crate) fn bland_mode(&self) -> bool {
        self.bland_mode
    }

    /// Whether devex is the configured rule: its weight update after every
    /// pivot, Bland-mode ones included, reads the pivot row.
    pub(crate) fn uses_devex(&self) -> bool {
        self.devex_weights.is_some()
    }

    /// Select the entering column under the current mode.
    pub(crate) fn select<R: ReducedCosts + ?Sized>(
        &mut self,
        reduced: &R,
        banned: &[bool],
        cols: usize,
    ) -> Option<usize> {
        if self.bland_mode {
            return entering_bland(reduced, banned, cols);
        }
        match &mut self.devex_weights {
            Some(weights) => {
                if weights.len() < cols {
                    // First selection of the phase: the reference framework
                    // starts with unit weights on every column.
                    weights.resize(cols, 1.0);
                }
                entering_devex(reduced, banned, cols, weights)
            }
            None => entering_dantzig(reduced, banned, cols),
        }
    }

    /// Devex reference-weight update after a pivot: with entering column `q`,
    /// leaving column `t`, pivot element `α_rq` and normalized pivot row
    /// `α_rj / α_rq` (provided as a closure over column indices),
    ///
    /// ```text
    /// w_j ← max(w_j, (α_rj/α_rq)² · w_q)   for nonbasic j ≠ q
    /// w_t ← max(w_q / α_rq², 1)            for the leaving column
    /// ```
    ///
    /// A no-op unless devex is the configured rule. Weights are approximate
    /// by design; see [`entering_devex`] for why that is sound.
    pub(crate) fn update_devex_weights<F: Fn(usize) -> f64>(
        &mut self,
        entering: usize,
        leaving_col: usize,
        pivot_element: f64,
        normalized_row: F,
    ) {
        let Some(weights) = &mut self.devex_weights else {
            return;
        };
        if weights.is_empty() || pivot_element == 0.0 {
            return;
        }
        let w_q = weights[entering].max(1.0);
        for (j, w_j) in weights.iter_mut().enumerate() {
            if j == entering {
                continue;
            }
            let r = normalized_row(j);
            if r != 0.0 {
                let candidate = r * r * w_q;
                if candidate > *w_j {
                    *w_j = candidate;
                }
            }
        }
        weights[leaving_col] = (w_q / (pivot_element * pivot_element)).max(1.0);
        // The entering column is basic now; its weight restarts at the
        // reference value if it ever leaves again.
        weights[entering] = 1.0;
    }

    /// Record a completed pivot: updates the per-rule pivot counters, the
    /// degeneracy streak, and the aggressive ↔ Bland mode.
    pub(crate) fn after_pivot(&mut self, degenerate: bool, stats: &mut PivotStats) {
        if self.bland_mode {
            stats.bland_pivots += 1;
        } else if self.devex_weights.is_some() {
            stats.devex_pivots += 1;
        } else {
            stats.dantzig_pivots += 1;
        }
        if degenerate {
            stats.degenerate_pivots += 1;
            self.degenerate_streak += 1;
            if !self.bland_mode && self.aggressive_allowed && self.degenerate_streak > self.limit {
                self.bland_mode = true;
                stats.fallback_activations += 1;
            }
        } else {
            self.degenerate_streak = 0;
            // A strict objective improvement left the degenerate vertex;
            // resume the cheaper-converging aggressive rule.
            if self.aggressive_allowed {
                self.bland_mode = false;
            }
        }
    }
}
