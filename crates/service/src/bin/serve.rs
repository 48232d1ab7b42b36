//! `cajade-serve` — the CaJaDE interactive explanation service over a
//! JSON-lines stdin/stdout protocol.
//!
//! ```text
//! cargo run -p cajade-service --release --bin cajade-serve
//! ```
//!
//! One request per line in, one JSON response per line out; see
//! `cajade_service::protocol` for the full op table. Example:
//!
//! ```text
//! {"op":"register","db":"nba","dataset":"nba","scale":0.25}
//! {"op":"query","db":"nba","sql":"SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' GROUP BY s.season_name"}
//! {"op":"ask","session":1,"t1":{"season_name":"2015-16"},"t2":{"season_name":"2012-13"}}
//! {"op":"stats"}
//! {"op":"metrics"}
//! ```
//!
//! Set `CAJADE_TRACE=1` (spans) or `CAJADE_TRACE=2` (detail) to stream
//! span records to stderr as JSON lines; `{"op":"metrics"}` exports the
//! process-wide registry (see `docs/OBSERVABILITY.md`).

#![deny(clippy::disallowed_methods)]

use std::io::{BufRead, Write};

use cajade_service::{protocol, ExplanationService, ServiceConfig};

// Heap attribution: every allocation flows through the tracking wrapper,
// so the `metrics` op's `memory` block and traced asks' per-span
// `alloc_bytes` report real bytes. A few thread-local adds per alloc; see
// docs/OBSERVABILITY.md § Memory attribution.
#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

fn main() {
    // CAJADE_TRACE=1|spans / 2|detail streams span records to stderr as
    // JSON lines; unset or 0 keeps tracing at its ~ns disabled path.
    cajade_obs::init_from_env();
    // CAJADE_FAULTS arms the fault-injection harness (test/CI only) around
    // every request; see docs/ROBUSTNESS.md for the site=action grammar.
    // Unset means every failpoint is a single thread-local load.
    let faults = cajade_obs::faults::init_from_env();
    let service = ExplanationService::new(ServiceConfig {
        registry: cajade_obs::global().clone(),
        ..ServiceConfig::default()
    });
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for bytes in stdin.lock().split(b'\n') {
        let bytes = match bytes {
            Ok(b) => b,
            Err(_) => break, // stdin closed
        };
        // A line that is not UTF-8 is still one request: its bad bytes
        // read as U+FFFD and it is answered, not taken for end of input.
        let line = String::from_utf8_lossy(&bytes);
        if line.trim().is_empty() {
            continue;
        }
        let response = faults.install(|| protocol::handle_line(&service, &line));
        if writeln!(out, "{}", response.render())
            .and_then(|()| out.flush())
            .is_err()
        {
            break; // stdout closed
        }
    }
}
