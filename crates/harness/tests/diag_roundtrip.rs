//! Property tests for the `diag.v1` codec: any diagnostic the front end or
//! semantic analyzer can emit must survive `diagnostic_to_json` → render →
//! `json::parse` → `diagnostic_from_json` unchanged, and the rendering must
//! be byte-deterministic.

use lassi_harness::codec::{diagnostic_from_json, diagnostic_to_json};
use lassi_harness::json::parse;
use lassi_lang::{Diagnostic, Severity};
use proptest::prelude::*;

// Message shapes real emissions contain: identifiers in quotes, punctuation,
// escapes, newlines and tabs.
const MESSAGE_PATTERN: &str = "[a-zA-Z0-9 _'(){}<>#*&+=.:;,!/\"\\\\\\n\\t-]{0,120}";
// The vendored proptest shim supports single `[class]{lo,hi}` patterns, so
// codes are a generated `area/kind`-shaped tail on a fixed prefix.
const CODE_TAIL_PATTERN: &str = "[a-z/-]{1,24}";

fn severity_from_index(i: u32) -> Severity {
    match i % 3 {
        0 => Severity::Note,
        1 => Severity::Warning,
        _ => Severity::Error,
    }
}

fn decode(text: &str) -> Result<Diagnostic, String> {
    let value = parse(text).map_err(|e| e.to_string())?;
    diagnostic_from_json(&value).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn diagnostic_round_trips_for_arbitrary_contents(
        (severity_ix, line, column) in (0u32..3, 0u32..100_000, 0u32..10_000),
        code_tail in CODE_TAIL_PATTERN,
        message in MESSAGE_PATTERN,
        notes in proptest::collection::vec((0u32..100_000, MESSAGE_PATTERN), 0..4),
    ) {
        let mut d = Diagnostic {
            severity: severity_from_index(severity_ix),
            code: format!("sema/{code_tail}"),
            line,
            column,
            message,
            notes: Vec::new(),
        };
        for (note_line, note_message) in notes {
            d = d.with_note(note_line, note_message);
        }

        let encoded = diagnostic_to_json(&d).to_compact();
        let back = decode(&encoded).unwrap();
        prop_assert_eq!(&back, &d);

        // Rendering is byte-deterministic.
        prop_assert_eq!(diagnostic_to_json(&back).to_compact(), encoded);

        // The pretty form decodes to the same diagnostic.
        prop_assert_eq!(decode(&diagnostic_to_json(&d).to_pretty()).unwrap(), d);
    }
}

#[test]
fn malformed_diagnostics_are_rejected() {
    for bad in [
        // Unknown severity.
        r#"{"severity":"fatal","code":"c","line":0,"column":0,"message":"m","notes":[]}"#,
        // Trailing garbage after the object.
        r#"{"severity":"error","code":"c","line":0,"column":0,"message":"m","notes":[]} trailing"#,
        // Not an object.
        "[1]",
        "\"error\"",
    ] {
        assert!(decode(bad).is_err(), "{bad}");
    }
}
