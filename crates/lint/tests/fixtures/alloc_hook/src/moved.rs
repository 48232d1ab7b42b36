//! A configured allocator-hook module whose hooks were renamed away:
//! the rule must say so instead of passing vacuously.

pub fn record_alloc(size: usize) {
    TOTAL.fetch_add(size as u64, Relaxed);
}
