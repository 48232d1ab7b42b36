//! Seeded `single-clock` violations. The fixture config marks `src/` as
//! a pipeline source directory. Never compiled — lexed by the fixture
//! tests only.

pub fn stage(timings: &mut Timings) {
    let t0 = Instant::now(); // line 6: fires
    let t1 = std::time::Instant::now(); // line 7: fires
    // The split inside one stage: lint:allow(single-clock)
    let t2 = Instant::now();
    let _in_str = "Instant::now() inside a string literal is fine";
    // Instant::now() inside a comment is fine
    timings.a = t0.elapsed(); // reading a clock is fine; starting one is not
    timings.b = t2 - t1;
    let g = Stage::open("stage");
    timings.c = g.finish(); // the sanctioned form
}

#[cfg(test)]
mod tests {
    pub fn bench_helper() -> Instant {
        Instant::now() // test code: exempt
    }
}
