//! Simulator error types.

use core::fmt;
use std::error::Error;

/// Errors reported by circuit construction and the analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// The MNA matrix is singular — typically a floating node or a loop
    /// of ideal voltage sources.
    SingularMatrix {
        /// Analysis that failed ("op", "dc", "tran").
        analysis: &'static str,
        /// Simulated time at failure, seconds (0 outside transient).
        time: f64,
    },
    /// Newton iteration failed to converge within the iteration limit
    /// even after step-size reduction.
    NonConvergence {
        /// Analysis that failed.
        analysis: &'static str,
        /// Simulated time at failure, seconds.
        time: f64,
        /// Iterations spent in the final attempt.
        iterations: usize,
    },
    /// A device references a node that does not exist in the circuit.
    UnknownNode {
        /// Offending device name.
        device: String,
    },
    /// A device name was used twice.
    DuplicateDevice {
        /// The repeated name.
        name: String,
    },
    /// A requested trace (node or branch) is not part of the result set.
    UnknownTrace {
        /// The requested trace name.
        name: String,
    },
    /// An analysis parameter is out of range (non-positive stop time,
    /// step larger than the window, empty sweep, …).
    InvalidAnalysis {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A device parameter is non-physical (negative resistance, zero
    /// width, …).
    InvalidDevice {
        /// Offending device name.
        device: String,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SingularMatrix { analysis, time } => {
                write!(
                    f,
                    "singular MNA matrix during {analysis} analysis at t = {time:.3e} s \
                     (floating node or voltage-source loop)"
                )
            }
            Self::NonConvergence {
                analysis,
                time,
                iterations,
            } => write!(
                f,
                "newton iteration did not converge during {analysis} analysis at \
                 t = {time:.3e} s after {iterations} iterations"
            ),
            Self::UnknownNode { device } => {
                write!(f, "device {device} references a node not in this circuit")
            }
            Self::DuplicateDevice { name } => {
                write!(f, "device name {name} is already in use")
            }
            Self::UnknownTrace { name } => {
                write!(f, "no trace named {name} in the result set")
            }
            Self::InvalidAnalysis { reason } => {
                write!(f, "invalid analysis parameters: {reason}")
            }
            Self::InvalidDevice { device, reason } => {
                write!(f, "invalid device {device}: {reason}")
            }
        }
    }
}

impl Error for SpiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_the_offender() {
        let e = SpiceError::UnknownNode {
            device: "M1".into(),
        };
        assert!(e.to_string().contains("M1"));
        let e = SpiceError::NonConvergence {
            analysis: "tran",
            time: 1e-9,
            iterations: 100,
        };
        assert!(e.to_string().contains("tran"));
        assert!(e.to_string().contains("100"));
        let e = SpiceError::UnknownTrace { name: "out".into() };
        assert!(e.to_string().contains("out"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<SpiceError>();
    }
}
