//! Outside the configured pipeline directories: stopwatches are free
//! here. Never compiled — lexed by the fixture tests only.

pub fn stopwatch() -> Instant {
    Instant::now()
}
