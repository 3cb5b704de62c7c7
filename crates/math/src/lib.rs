//! Numerical substrate for the QTurbo analog quantum simulation compiler.
//!
//! The original QTurbo implementation relies on NumPy and SciPy for its
//! equation solving. This crate re-implements, from scratch, the numerical
//! kernels that the compiler (and the SimuQ-style baseline) need:
//!
//! * dense real [`Matrix`] / [`Vector`] arithmetic and norms,
//! * exact and least-squares linear solvers ([`lu`], [`qr`], [`linear`]),
//! * minimum-norm solutions of under-determined systems ([`linear::min_norm_solve`]),
//! * nonlinear least squares with box constraints ([`levenberg::LevenbergMarquardt`]),
//! * derivative-free minimization ([`nelder_mead::NelderMead`]),
//! * L1-norm regression via iteratively re-weighted least squares ([`l1`]),
//! * scalar root finding ([`roots`]),
//! * Bessel functions and Chebyshev expansion coefficients of the complex
//!   exponential ([`chebyshev`]) for the Chebyshev propagator,
//! * a small [`Complex`] type used by the state-vector simulator,
//! * a deterministic xoshiro256++ generator ([`rng::Rng`]) for noise models,
//!   multi-start solvers, and property tests.
//!
//! # Example
//!
//! Solving a small linear system:
//!
//! ```
//! use qturbo_math::{Matrix, Vector, linear};
//!
//! let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
//! let b = Vector::from(vec![3.0, 5.0]);
//! let x = linear::min_norm_solve(&a, &b).unwrap();
//! assert!((a.mul_vector(&x) - b).norm_inf() < 1e-12);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod chebyshev;
pub mod complex;
pub mod jacobian;
pub mod l1;
pub mod levenberg;
pub mod linear;
pub mod lu;
pub mod matrix;
pub mod nelder_mead;
pub mod qr;
pub mod rng;
pub mod roots;
pub mod vector;

pub use complex::Complex;
pub use jacobian::numerical_jacobian;
pub use levenberg::{LevenbergMarquardt, LmOutcome};
pub use matrix::Matrix;
pub use nelder_mead::{NelderMead, NelderMeadOutcome};
pub use vector::Vector;

/// Error type shared by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MathError {
    /// Matrix dimensions were incompatible for the requested operation.
    DimensionMismatch {
        /// Human readable description of the two incompatible shapes.
        context: String,
    },
    /// The matrix was (numerically) singular and the operation requires an
    /// invertible matrix.
    SingularMatrix,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// An argument was outside the routine's domain (e.g. empty input,
    /// lower bound above upper bound).
    InvalidArgument {
        /// Human readable description of the violated requirement.
        context: String,
    },
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            MathError::SingularMatrix => write!(f, "matrix is singular"),
            MathError::NoConvergence {
                routine,
                iterations,
            } => {
                write!(
                    f,
                    "{routine} did not converge after {iterations} iterations"
                )
            }
            MathError::InvalidArgument { context } => {
                write!(f, "invalid argument: {context}")
            }
        }
    }
}

impl std::error::Error for MathError {}

/// Convenience result alias for fallible numerical routines.
pub type MathResult<T> = Result<T, MathError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = MathError::DimensionMismatch {
            context: "2x3 * 4x1".to_string(),
        };
        assert!(e.to_string().contains("2x3 * 4x1"));
        let e = MathError::NoConvergence {
            routine: "lm",
            iterations: 7,
        };
        assert!(e.to_string().contains("lm"));
        assert!(e.to_string().contains('7'));
        let e = MathError::SingularMatrix;
        assert!(!e.to_string().is_empty());
        let e = MathError::InvalidArgument {
            context: "empty".into(),
        };
        assert!(e.to_string().contains("empty"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MathError>();
    }
}
