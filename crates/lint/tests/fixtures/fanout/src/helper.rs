//! The fixture config names this file as the one fan-out helper: the
//! shapes `fanout-ctx` looks for are allowed here and only here. Never
//! compiled — lexed by the fixture tests only.

pub fn fan_out<T, R>(items: &[T], f: impl Fn(&T) -> R) -> Vec<R> {
    let ctx = Ctx::capture();
    items.par_iter().map(|item| ctx.enter(|| f(item))).collect()
}
