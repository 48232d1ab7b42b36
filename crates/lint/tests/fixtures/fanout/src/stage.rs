//! Seeded `fanout-ctx` violations: a pipeline module fanning out on its
//! own. Never compiled — lexed by the fixture tests only.

pub fn stage(items: Vec<u32>) {
    let a: Vec<u32> = items.par_iter().map(|x| x + 1).collect(); // line 5: fires
    let b: Vec<u32> = items.into_par_iter().collect(); // line 6: fires
    std::thread::spawn(move || drop(a)); // line 7: fires
    thread::scope(|s| drop(s)); // line 8: fires
    // A pool that outlives requests: lint:allow(fanout-ctx)
    let pool = thread::spawn(|| serve());
    let _in_str = "items.par_iter() inside a string literal is fine";
    let par_iter = b.len(); // a binding named par_iter is not a call
    helper::fan_out(&b, |x| x + par_iter as u32); // the sanctioned form
}

#[cfg(test)]
mod tests {
    pub fn hammer() {
        std::thread::scope(|s| drop(s)); // test code: exempt
    }
}
