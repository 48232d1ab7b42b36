//! The tracking allocator's hooks run on every allocation and free of
//! every thread, so they touch thread-local state only: no atomic
//! read-modify-write, no lock, no allocation (`docs/OBSERVABILITY.md`,
//! "Hot path, fold points, and what a reader sees"). A `#[cold]` fn is
//! where the per-event path ends and the amortised fold begins.
//!
//! The test reads `src/alloc.rs` as text, starts at every fn named
//! `on_alloc` or `on_dealloc`, follows calls by name (to every fn of that
//! name) short of a `#[cold]` fn, and fails on a forbidden shape in any
//! fn it reached.

/// What the per-event path must not contain.
const FORBIDDEN: [&str; 4] = [".fetch_", ".lock(", "Box::new", "Vec::"];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The file short of its test module, with `//` comments cut off.
fn production_code(src: &str) -> String {
    let end = src.find("#[cfg(test)]\nmod tests").unwrap_or(src.len());
    let lines = src[..end]
        .lines()
        .map(|l| l.find("//").map_or(l, |i| &l[..i]));
    lines.collect::<Vec<_>>().join("\n")
}

/// Every `fn` of `code`: its name, whether an attribute line directly
/// above it is `#[cold]`, and its brace-balanced body ("" without one).
fn fn_items(code: &str) -> Vec<(&str, bool, &str)> {
    let mut out = Vec::new();
    for (at, _) in code.match_indices("fn ") {
        if code[..at].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        let rest = &code[at + 3..];
        let name = &rest[..rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len())];
        let line_start = code[..at].rfind('\n').map_or(0, |i| i + 1);
        let cold = (code[..line_start].lines().rev().map(str::trim))
            .take_while(|l| l.starts_with("#[") || l.is_empty())
            .any(|l| l == "#[cold]");
        let open = rest
            .find(['{', ';'])
            .filter(|&i| rest[i..].starts_with('{'));
        let body = open.map_or("", |open| {
            let mut depth = 0;
            let len = rest[open..].find(|c| {
                depth += i32::from(c == '{') - i32::from(c == '}');
                depth == 0
            });
            &rest[open..len.map_or(rest.len(), |n| open + n + 1)]
        });
        out.push((name, cold, body));
    }
    out
}

/// Does `body` call a fn named `name`?
fn calls(body: &str, name: &str) -> bool {
    body.match_indices(name).any(|(i, _)| {
        let after = &body[i + name.len()..];
        !body[..i].chars().next_back().is_some_and(is_ident)
            && (after.starts_with('(') || after.starts_with("::<"))
    })
}

#[test]
fn allocator_hooks_stay_thread_local_until_a_cold_fn() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/alloc.rs");
    let code = production_code(&std::fs::read_to_string(path).expect("read src/alloc.rs"));
    let fns = fn_items(&code);
    let mut hot: Vec<usize> = (0..fns.len())
        .filter(|&i| matches!(fns[i].0, "on_alloc" | "on_dealloc"))
        .collect();
    assert!(
        !hot.is_empty(),
        "src/alloc.rs defines neither `on_alloc` nor `on_dealloc`"
    );
    let mut found = Vec::new();
    let mut next = 0;
    while let Some(&f) = hot.get(next) {
        next += 1;
        let (name, _, body) = fns[f];
        for shape in FORBIDDEN.into_iter().filter(|s| body.contains(s)) {
            found.push(format!("`{shape}` in `{name}`"));
        }
        for (g, &(callee, cold, _)) in fns.iter().enumerate() {
            if !cold && !hot.contains(&g) && calls(body, callee) {
                hot.push(g);
            }
        }
    }
    let walked: Vec<&str> = hot.iter().map(|&i| fns[i].0).collect();
    assert!(
        found.is_empty(),
        "the allocator hooks reach {found:?} (walked {walked:?}): fold into shared state \
         behind a `#[cold]` fn instead"
    );
}
