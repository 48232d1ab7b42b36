//! Not a configured allocator-hook module: the same shapes are fine.

pub fn on_alloc(size: usize) {
    TOTAL.fetch_add(size as u64, Relaxed);
    let _ = Box::new(TABLE.lock());
}
