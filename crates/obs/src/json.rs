//! The workspace's one JSON string escaper.
//!
//! Every JSON document the workspace writes — the golden result tables,
//! `sfbench list --json`, the `sf-heartbeat/v1` heartbeat file — quotes its
//! strings through [`json_string`], so the escaping rules cannot drift
//! between writers and one escape-aware reader undoes all of them.

use std::fmt::Write as _;

/// Renders `s` as a quoted JSON string literal. `"` and `\` get a
/// backslash, `\n`, `\r` and `\t` use their short escapes, and every other
/// control character below U+0020 uses the `\u00XX` form; everything else
/// is copied as-is.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_every_control_character() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(
            json_string("a\"b\\c\nd\re\tf\u{1}g\u{1f}h"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\""
        );
        // Non-ASCII text passes through unescaped.
        assert_eq!(json_string("µs→"), "\"µs→\"");
    }
}
