//! No byte sequence a client or a file can supply panics a parser.
//!
//! Three parsers read outside bytes: the daemon's request line
//! ([`Request`], parsed exactly as the server does), a `--resume` run
//! log ([`parse_partial_run_log`]), and the result-cache index (read by
//! [`cache::survey`]). Each is fed random bytes, random UTF-8, JSON-ish
//! token soup, and nesting past the JSON parser's 128-level limit. A
//! parser may accept or reject its input but must never panic; nested
//! input must be rejected.

use membound::core::cache;
use membound::core::telemetry::parse_partial_run_log;
use membound::serve::Request;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;

/// A valid run-log header, so nested and random lines reach the
/// per-cell parser too.
const RUN_HEADER: &str = r#"{"kind":"header","schema_version":6,"figure":"fig2_transpose","jobs":1,"cells":10,"created_unix_ms":1786186157683}"#;

/// A valid cache-index header, for the same reason.
const INDEX_HEADER: &str = r#"{"kind":"cache_header","format_version":1}"#;

/// Fragments that steer random input through the JSON grammar.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    "0",
    "-1.5e3",
    "1e999",
    "true",
    "null",
    "\"kind\"",
    "\"cell\"",
    "\"insert\"",
    "\"key\"",
    "\"Submit\"",
    "\"Status\"",
    "\\u00e9",
    "\\ud800",
    "\\",
    " ",
    "\n",
    "é",
    "\u{1F600}",
];

fn random_bytes() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..512).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn random_utf8() -> impl Strategy<Value = String> {
    vec(0u32..0x11_0000, 0..256).prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn token_soup() -> impl Strategy<Value = String> {
    vec(0..TOKENS.len(), 0..96).prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect())
}

/// Nesting from just past the limit to far past it, in arrays,
/// objects, or under a request's own tag, closed or left open.
fn deep() -> impl Strategy<Value = String> {
    (129usize..20_000, 0usize..3, any::<bool>()).prop_map(|(depth, shape, closed)| {
        let (prefix, open, close) = [
            ("", "[", "]"),
            ("", "{\"a\":", "}"),
            ("{\"Submit\":{\"spec\":", "[", "]"),
        ][shape];
        let mut s = prefix.to_owned() + &open.repeat(depth);
        if closed {
            s += &close.repeat(depth);
        }
        s
    })
}

fn any_input() -> impl Strategy<Value = String> {
    prop_oneof![random_bytes(), random_utf8(), token_soup(), deep()]
}

/// The request parse of `serve_connection`: trim, then JSON.
fn parse_request(line: &str) -> Result<Request, String> {
    serde_json::from_str(line.trim()).map_err(|e| e.to_string())
}

/// Survey a cache directory whose index holds exactly `text`; `name`
/// keeps concurrently running properties apart.
fn survey_index(name: &str, text: &str) -> std::io::Result<cache::CacheSurvey> {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "membound-prop-parsers-{name}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("index.jsonl"), text)?;
    let survey = cache::survey(&dir, "fp");
    std::fs::remove_dir_all(&dir)?;
    survey
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_lines_never_panic(line in any_input()) {
        let _ = parse_request(&line);
    }

    #[test]
    fn nested_request_lines_are_rejected(line in deep()) {
        prop_assert!(parse_request(&line).is_err());
    }

    #[test]
    fn run_logs_never_panic(body in any_input(), tail in any_input()) {
        let _ = parse_partial_run_log(&body);
        let _ = parse_partial_run_log(&format!("{RUN_HEADER}\n{body}\n{tail}"));
    }

    #[test]
    fn nested_run_log_lines_are_rejected(line in deep()) {
        prop_assert!(parse_partial_run_log(&line).is_err());
        // Nested garbage on an interior line is corruption...
        let interior = format!("{RUN_HEADER}\n{line}\n{RUN_HEADER}");
        prop_assert!(parse_partial_run_log(&interior).is_err());
        // ...and on the last line a torn tail, dropped without a record.
        let log = parse_partial_run_log(&format!("{RUN_HEADER}\n{line}"));
        prop_assert!(log.is_ok_and(|l| l.truncated_tail && l.records.is_empty()));
    }

    #[test]
    fn cache_indexes_never_panic(body in any_input()) {
        for text in [body.clone(), format!("{INDEX_HEADER}\n{body}\n")] {
            let survey = survey_index("any", &text);
            prop_assert!(survey.is_ok(), "{survey:?}");
        }
    }

    #[test]
    fn nested_cache_index_lines_count_as_garbage(line in deep()) {
        let survey = survey_index("deep", &format!("{INDEX_HEADER}\n{line}\n")).unwrap();
        prop_assert_eq!(survey.index_garbage, 1);
    }
}
