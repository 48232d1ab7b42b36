//! Adversarial protocol lines: `protocol::handle_line` never panics, and
//! every line it cannot serve is answered with a well-formed
//! `{"ok":false,"error":{"code","message"}}`, `code` from the documented
//! taxonomy.
//!
//! Two property tests feed one service (a tiny NBA corpus registered, one
//! session open): arbitrary strings (any characters, JSON token soup,
//! deep nesting) and byte-level mutations of a valid request of every op.
//! A mutated line is read the way `cajade-serve` reads stdin bytes (lossy
//! UTF-8). Synthetic `register` requests are left out of the mutations:
//! one changed digit of `scale` is a legitimate request for a corpus a
//! hundred times larger, which is work, not a robustness bug.

use std::sync::OnceLock;

use cajade::datagen::nba::{self, NbaConfig};
use cajade::service::json::Json;
use cajade::service::{protocol, ExplanationService, ERROR_CODES};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::string::string_regex;

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
     GROUP BY s.season_name";

/// A service with tiny NBA registered as `nba` and session 1 open on the
/// `GSW` query, asked once, so that asks reach warm mining.
fn new_service() -> ExplanationService {
    let service = ExplanationService::default();
    let gen = nba::generate(NbaConfig::tiny());
    service.register_database("nba", gen.db, gen.schema_graph);
    for line in &valid_requests()[1..3] {
        let resp = protocol::handle_line(&service, line);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{line}: {resp:?}");
    }
    service
}

/// The service the property tests share.
fn service() -> &'static ExplanationService {
    static SERVICE: OnceLock<ExplanationService> = OnceLock::new();
    SERVICE.get_or_init(new_service)
}

/// One valid request per op (and per shape of `ask`).
fn valid_requests() -> Vec<String> {
    let query = Json::obj([
        ("op", Json::str("query")),
        ("db", Json::str("nba")),
        ("sql", Json::str(GSW_SQL)),
        ("max_rows", Json::num(5.0)),
    ]);
    vec![
        format!(
            r#"{{"op":"register","db":"retail","source":"csv_dir","path":"{}/tests/data/retail_csv","strict":false,"max_joins":1}}"#,
            env!("CARGO_MANIFEST_DIR")
        ),
        query.render(),
        r#"{"op":"ask","session":1,"t1":{"season_name":"2015-16"},"t2":{"season_name":"2012-13"},"trace":false,"timeout_ms":60000}"#.into(),
        r#"{"op":"ask","session":1,"t":{"season_name":"2015-16"}}"#.into(),
        r#"{"op":"stats"}"#.into(),
        r#"{"op":"metrics","format":"prometheus"}"#.into(),
        r#"{"op":"close","session":77}"#.into(),
    ]
}

/// Sends `line` and checks the response: no panic was caught on the way,
/// the response renders to one line that parses back, and an `ok:false`
/// carries a documented `code` and a non-empty `message`.
fn check(line: &str) -> Result<(), TestCaseError> {
    let service = service();
    let panicked = || {
        let snap = service.metrics_snapshot();
        let counter = snap
            .counters
            .iter()
            .find(|(k, _)| k == "requests_panicked_total");
        counter.map(|(_, v)| *v)
    };
    let before = panicked();
    let resp = protocol::handle_line(service, line);
    prop_assert_eq!(panicked(), before);
    let rendered = resp.render();
    prop_assert!(!rendered.contains('\n'), "multi-line response {rendered}");
    prop_assert!(Json::parse(&rendered).is_ok(), "unparsable {rendered}");
    match resp.get("ok").and_then(Json::as_bool) {
        Some(true) => {}
        Some(false) => {
            let error = resp.get("error");
            let code = error.and_then(|e| e.get("code")).and_then(Json::as_str);
            let message = error.and_then(|e| e.get("message")).and_then(Json::as_str);
            prop_assert!(
                code.is_some_and(|c| ERROR_CODES.contains(&c)),
                "undocumented code in {rendered}"
            );
            prop_assert!(
                message.is_some_and(|m| !m.is_empty()),
                "no message in {rendered}"
            );
        }
        None => prop_assert!(false, "no boolean `ok` in {rendered}"),
    }
    Ok(())
}

const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "d800",
    "op",
    "\"op\"",
    "\"ask\"",
    "\"query\"",
    "\"register\"",
    "\"close\"",
    "\"metrics\"",
    "\"session\"",
    "\"t1\"",
    "\"t\"",
    "\"timeout_ms\"",
    "\"sql\"",
    "\"db\"",
    "\"nba\"",
    "\"csv_dir\"",
    "\"path\"",
    "1",
    "-0",
    "1e309",
    "-1e-400",
    "0.5",
    "null",
    "true",
    "false",
    " ",
    "\u{0}",
    "é",
    "😀",
];

/// A line of concatenated JSON-ish tokens.
fn token_soup() -> impl Strategy<Value = String> {
    vec(0..TOKENS.len(), 0..40).prop_map(|picks| picks.iter().map(|&i| TOKENS[i]).collect())
}

/// A request whose `op` value (or whole body) opens `depth` nested
/// arrays or objects and never closes them.
fn deep_nesting() -> impl Strategy<Value = String> {
    (0usize..200_000, any::<bool>(), any::<bool>()).prop_map(|(depth, arrays, in_op)| {
        let open = if arrays { "[" } else { r#"{"a":"# };
        let prefix = if in_op { r#"{"op":"# } else { "" };
        format!("{prefix}{}", open.repeat(depth))
    })
}

/// Byte edits: `(kind, position, byte)`.
type Edit = (u8, u32, u8);

const STRUCTURAL: &[u8] = b"\"\\{}[]:,0-e9 \xff";

/// Applies `edits` to `line`'s bytes and reads the result as the server
/// reads stdin.
fn mutate(line: &str, edits: &[Edit]) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for &(kind, pos, byte) in edits {
        let at = pos as usize % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 if at < bytes.len() => bytes[at] = STRUCTURAL[byte as usize % STRUCTURAL.len()],
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn arbitrary_lines_are_answered_never_panicked_on(line in prop_oneof![
        string_regex(".{0,80}").unwrap(),
        token_soup(),
        deep_nesting(),
    ]) {
        check(&line)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn mutated_requests_of_every_op_are_answered_never_panicked_on(
        which in 0..valid_requests().len(),
        edits in vec((0u8..5, any::<u32>(), 0u8..=255), 1..5),
    ) {
        check(&mutate(&valid_requests()[which], &edits))?;
    }
}

/// The unmutated requests are served: the mutations start from lines the
/// protocol accepts. (A service of its own: a mutated `close` may have
/// closed the shared one's session.)
#[test]
fn every_valid_request_is_served() {
    let service = new_service();
    for line in valid_requests() {
        let resp = protocol::handle_line(&service, &line);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{line}: {resp:?}");
    }
}
