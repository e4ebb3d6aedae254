//! Robustness properties of the litmus parser.

use proptest::prelude::*;
use rtlcheck_litmus::parse;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary strings never panic the parser.
    #[test]
    fn arbitrary_input_never_panics(src in "\\PC*") {
        let _ = parse(&src);
    }

    /// Token soup in the litmus grammar's neighbourhood never panics.
    #[test]
    fn token_soup_never_panics(toks in proptest::collection::vec(
        prop_oneof![
            Just("test"), Just("core"), Just("st"), Just("ld"), Just("forbid"),
            Just("permit"), Just("r1"), Just("x"), Just("y"), Just("{"),
            Just("}"), Just("("), Just(")"), Just("="), Just(";"), Just(","),
            Just(":"), Just("/\\"), Just("0"), Just("1"), Just("99"),
            Just("4294967296"),
        ],
        0..20,
    )) {
        let src = toks.join(" ");
        let _ = parse(&src);
    }
}

/// Truncations of every built-in suite source error gracefully.
#[test]
fn truncated_suite_sources_never_panic() {
    for (_, src) in rtlcheck_litmus::suite::SOURCES {
        for end in (0..src.len()).step_by(5) {
            if src.is_char_boundary(end) {
                let _ = parse(&src[..end]);
            }
        }
    }
}
