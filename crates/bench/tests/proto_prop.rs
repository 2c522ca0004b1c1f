//! Property tests for the escape-aware JSON reader (`sf_bench::proto`) and
//! the one JSON string escaper (`sf_obs::json::json_string`): the reader
//! never panics on arbitrary input, and every label survives the
//! `sf-heartbeat/v1` writer → reader round trip without shadowing a real
//! field.

use proptest::collection::vec;
use proptest::prelude::*;
use sf_bench::proto::{field_str, field_u64, fields};
use sf_obs::json::json_string;
use sf_obs::progress::heartbeat_line;

/// Characters the generated text is drawn from: JSON punctuation, escape
/// letters, whitespace, control characters, non-ASCII and a few letters.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', '\\', ':', ',', '/', 'u', 'n', 't', 'r', 'e', 'a', '0', '7', '-', '.',
    ' ', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'µ', '→', '😀',
];

/// Label fragments that look like JSON structure, so generated labels try
/// to inject or shadow fields.
const FRAGMENTS: &[&str] = &[
    "x\"done\":99,",
    "\",\"done\":7,\"label\":\"",
    "}",
    "{\"total\":1}",
    "\\u0022",
    "\\",
];

/// Maps generated codes to text: mostly [`ALPHABET`] characters, some
/// fragments, and some arbitrary Unicode scalar values.
fn text(codes: &[u32]) -> String {
    let mut out = String::new();
    for &code in codes {
        match code % 8 {
            0 => out.push_str(FRAGMENTS[(code / 8) as usize % FRAGMENTS.len()]),
            1 => out.extend(char::from_u32(code / 8 % 0x11_0000)),
            _ => out.push(ALPHABET[(code / 8) as usize % ALPHABET.len()]),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary text, including random bytes read as lossy UTF-8 and
    /// near-JSON built from brackets, quotes and escapes, never panics the
    /// reader; whatever it accepts starts with `{` and ends with `}`.
    #[test]
    fn prop_fields_never_panics_on_arbitrary_text(
        codes in vec(any::<u32>(), 0..48),
        bytes in vec(any::<u8>(), 0..48),
    ) {
        let body = text(&codes);
        let wrapped = format!("{{{body}}}");
        let lossy = String::from_utf8_lossy(&bytes).into_owned();
        for input in [body.as_str(), wrapped.as_str(), lossy.as_str()] {
            if fields(input).is_some() {
                prop_assert!(input.trim().starts_with('{') && input.trim().ends_with('}'), "{input:?}");
            }
            let _ = field_u64(input, "done");
            let _ = field_str(input, "label");
        }
    }

    /// Whatever the label, a heartbeat line is one line of valid JSON that
    /// reads back its own `done` count and its label, exactly.
    #[test]
    fn prop_heartbeat_round_trips_any_label(
        codes in vec(any::<u32>(), 0..24),
        done in 0usize..1_000_000,
        total in 0usize..1_000_000,
        rows in 0usize..1_000_000,
        elapsed in any::<u32>(),
        finished in any::<bool>(),
    ) {
        let label = text(&codes);
        let line = heartbeat_line(&label, done, total, rows, u128::from(elapsed), finished);
        prop_assert_eq!(field_u64(&line, "done"), Some(done as u64), "{line}");
        prop_assert_eq!(field_u64(&line, "total"), Some(total as u64), "{line}");
        prop_assert_eq!(field_str(&line, "label"), Some(label.clone()), "{line}");
        // One line of valid JSON: the only raw control character is the
        // terminating newline.
        let body = line.strip_suffix('\n').unwrap_or_default();
        prop_assert!(!body.chars().any(|c| (c as u32) < 0x20), "{line:?}");
    }

    /// The escaper's output is one string literal the reader decodes back
    /// to the input, for any text.
    #[test]
    fn prop_escaper_round_trips_through_the_reader(codes in vec(any::<u32>(), 0..32)) {
        let value = text(&codes);
        let line = format!("{{\"k\":{},\"n\":1}}", json_string(&value));
        prop_assert_eq!(field_str(&line, "k"), Some(value.clone()), "{line}");
        prop_assert_eq!(field_u64(&line, "n"), Some(1), "{line}");
        prop_assert!(!json_string(&value).chars().any(|c| (c as u32) < 0x20), "{value:?}");
    }
}
