//! Entering-column pricing: the first stage of a simplex iteration.
//!
//! Both solver forms price entering columns from the same exact reduced
//! costs `d = c − c_Bᵀ B⁻¹ A`, read through the [`ReducedCosts`] view. The
//! dense tableau keeps `d` as its objective row (a `&[T]` slice); the
//! revised solver recomputes it every iteration from the simplex
//! multipliers and keeps it unnormalized over a common scale
//! ([`crate::pivot_row::ScaledCosts`]). Both views answer the two
//! questions the rules ask — the sign of `d_j` and the exact order of two
//! entries — with the same values, and this module is
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
}

/// The dense form's objective row.
impl<T: Scalar> ReducedCosts for [T] {
    fn is_negative(&self, j: usize) -> bool {
        self[j].is_negative_approx()
    }
    fn less(&self, a: usize, b: usize) -> bool {
        self[a] < self[b]
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

/// The pricing state machine, shared verbatim by both solver forms: Dantzig
/// selection with the Bland anti-cycling fallback.
///
/// Dantzig pricing only engages for exact scalars (see the
/// `crate::simplex` module docs for why the `f64` backend always prices by
/// Bland's rule). A streak of more than
/// [`SolverOptions::degeneracy_streak_limit`] consecutive degenerate pivots
/// switches to Bland's anti-cycling rule; the first objective-improving
/// pivot switches back.
pub(crate) struct FallbackState {
    bland_mode: bool,
    dantzig_allowed: bool,
    degenerate_streak: usize,
    limit: usize,
}

impl FallbackState {
    /// Initial pricing state for one phase of a solve with scalar type `T`.
    pub(crate) fn new<T: Scalar>(options: &SolverOptions) -> Self {
        let dantzig_allowed = options.pricing != PricingRule::Bland && T::is_exact();
        FallbackState {
            bland_mode: !dantzig_allowed,
            dantzig_allowed,
            degenerate_streak: 0,
            limit: options.degeneracy_streak_limit,
        }
    }

    /// Whether the *next* selection (and its ratio-test tie-break) uses
    /// Bland's rule.
    pub(crate) fn bland_mode(&self) -> bool {
        self.bland_mode
    }

    /// Select the entering column under the current mode.
    pub(crate) fn select<R: ReducedCosts + ?Sized>(
        &self,
        reduced: &R,
        banned: &[bool],
        cols: usize,
    ) -> Option<usize> {
        if self.bland_mode {
            entering_bland(reduced, banned, cols)
        } else {
            entering_dantzig(reduced, banned, cols)
        }
    }

    /// Record a completed pivot: updates the per-rule pivot counters, the
    /// degeneracy streak, and the Dantzig ↔ Bland mode.
    pub(crate) fn after_pivot(&mut self, degenerate: bool, stats: &mut PivotStats) {
        if self.bland_mode {
            stats.bland_pivots += 1;
        } else {
            stats.dantzig_pivots += 1;
        }
        if degenerate {
            stats.degenerate_pivots += 1;
            self.degenerate_streak += 1;
            if !self.bland_mode && self.dantzig_allowed && self.degenerate_streak > self.limit {
                self.bland_mode = true;
                stats.fallback_activations += 1;
            }
        } else {
            self.degenerate_streak = 0;
            // A strict objective improvement left the degenerate vertex;
            // resume the cheaper-converging Dantzig rule.
            if self.dantzig_allowed {
                self.bland_mode = false;
            }
        }
    }
}
