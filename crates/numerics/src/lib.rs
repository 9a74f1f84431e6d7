//! Numerical foundations for the `mzd` workspace.
//!
//! The PODS'97 model of Nerjes, Muth and Weikum needs a small but sharp set
//! of numerical tools that the authors had available in an off-the-shelf
//! mathematics package:
//!
//! * **Special functions** ([`special`]) — log-gamma, the regularized
//!   incomplete gamma function and its inverse (for Gamma-distribution CDFs
//!   and percentiles, e.g. the 99th size percentile in the worst-case
//!   admission bound, eq. 4.1), and the error function.
//! * **Quadrature** ([`integrate`]) — adaptive Simpson and Gauss–Legendre
//!   rules, used to integrate the multi-zone transfer-time density
//!   (eq. 3.2.7) and its moments.
//! * **Root finding** ([`roots`]) and **scalar minimization** ([`minimize`])
//!   — Brent's methods, used to find the optimal Chernoff parameter θ that
//!   minimizes `e^{-θt} M(θ)` (eq. 3.1.5 / 3.2.12).
//! * **Random variates** ([`rng`]) — Gamma, lognormal, Pareto, normal and
//!   Poisson samplers built on [`rand`], because the sanctioned offline
//!   crate set does not include `rand_distr`. Used by the simulator and the
//!   workload generators.
//! * **Statistics** ([`stats`]) — streaming moments, quantiles and
//!   confidence intervals for simulation output analysis.
//!
//! Everything is `f64`, deterministic, allocation-light and documented with
//! the numerical method used, so results are reproducible bit-for-bit for a
//! fixed seed and platform.

#![warn(missing_docs)]

pub mod complex;
pub mod integrate;
pub mod minimize;
pub mod rng;
pub mod roots;
pub mod special;
pub mod stats;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// An argument was outside the mathematical domain of the function.
    Domain {
        /// Which routine rejected the argument.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Which routine failed to converge.
        what: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// A bracketing precondition did not hold (e.g. no sign change).
    BadBracket {
        /// Which routine rejected the bracket.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for NumericsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericsError::Domain { what, detail } => {
                write!(f, "domain error in {what}: {detail}")
            }
            NumericsError::NoConvergence { what, iterations } => {
                write!(f, "{what} failed to converge after {iterations} iterations")
            }
            NumericsError::BadBracket { what, detail } => {
                write!(f, "bad bracket in {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for NumericsError {}

/// Result alias for fallible numerical routines.
pub type Result<T> = std::result::Result<T, NumericsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = NumericsError::Domain {
            what: "gamma_p",
            detail: "a must be positive".into(),
        };
        assert!(e.to_string().contains("gamma_p"));
        let e = NumericsError::NoConvergence {
            what: "brent",
            iterations: 100,
        };
        assert!(e.to_string().contains("100"));
        let e = NumericsError::BadBracket {
            what: "bisect",
            detail: "same sign".into(),
        };
        assert!(e.to_string().contains("bisect"));
    }
}
