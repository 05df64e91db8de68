//! # lassi-metrics
//!
//! The evaluation metrics from §V-A of the LASSI paper:
//!
//! * **Sim-T** — token-based similarity using the Ratcliff–Obershelp
//!   (longest-contiguous-matching-subsequence) algorithm over interned code
//!   tokens; values ≥ 0.6 are treated as "high similarity",
//! * **Sim-L** — line-based similarity: identical lines (regardless of order)
//!   over the line count of the longer program,
//! * **Ratio** — runtime of the original code in the target language divided
//!   by the runtime of the LASSI-generated code,
//! * aggregate statistics over a set of scenario outcomes (success rate,
//!   within-10%-runtime rate, similarity rate, zero-self-correction rate) —
//!   the headline percentages quoted in §V-B/§V-C.

pub mod aggregate;
pub mod similarity;

pub use aggregate::{AggregateStats, ScenarioOutcome};
pub use similarity::{sim_l, sim_t, tokenize_code, with_engine, SimilarityEngine, SymbolTable};

/// The Sim-T threshold the paper uses as "reasonable similarity".
pub const SIM_T_HIGH_SIMILARITY: f64 = 0.6;

/// Runtime ratio = original runtime / generated runtime. `None` when the
/// generated run failed.
pub fn runtime_ratio(original_seconds: f64, generated_seconds: f64) -> Option<f64> {
    if generated_seconds > 0.0 && original_seconds.is_finite() {
        Some(original_seconds / generated_seconds)
    } else {
        None
    }
}

/// The paper's "within 10% of or faster than the original" test on a
/// runtime ratio (ratio ≥ 0.9 means the generated code is at most ~10% slower).
pub fn within_ten_percent_or_faster(ratio: f64) -> bool {
    ratio >= 0.9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_basics() {
        assert_eq!(runtime_ratio(2.0, 1.0), Some(2.0));
        assert_eq!(runtime_ratio(1.0, 0.0), None);
        assert!(within_ten_percent_or_faster(1.5));
        assert!(within_ten_percent_or_faster(0.95));
        assert!(!within_ten_percent_or_faster(0.5));
    }
}
