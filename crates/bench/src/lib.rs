//! Shared helpers for the `bench_summary` perf-trajectory tool: the
//! consumers its LP workloads solve.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::Arc;

use privmech_core::{AbsoluteError, LossFunction, MinimaxConsumer, SideInformation};
use privmech_linalg::Scalar;

/// The standard benchmark consumer: absolute-error loss with full side
/// information over `{0..=n}`.
pub fn bench_consumer<T: Scalar>(n: usize) -> MinimaxConsumer<T> {
    MinimaxConsumer::new(
        "bench",
        Arc::new(AbsoluteError) as Arc<dyn LossFunction<T> + Send + Sync>,
        SideInformation::full(n),
    )
    .expect("absolute error is monotone")
}

/// A consumer with interval side information (exercises restricted-S paths).
pub fn bench_interval_consumer<T: Scalar>(n: usize) -> MinimaxConsumer<T> {
    MinimaxConsumer::new(
        "bench-interval",
        Arc::new(AbsoluteError) as Arc<dyn LossFunction<T> + Send + Sync>,
        SideInformation::interval(n, n / 4, 3 * n / 4).expect("non-empty interval"),
    )
    .expect("absolute error is monotone")
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_numerics::Rational;

    #[test]
    fn helpers_build_consumers() {
        let c = bench_consumer::<Rational>(4);
        assert_eq!(c.side_information().members().len(), 5);
        let c = bench_interval_consumer::<f64>(8);
        assert_eq!(c.side_information().members(), &[2, 3, 4, 5, 6]);
    }
}
