//! Seeded `alloc-hook-local` violations plus immune shapes. Never
//! compiled — lexed by the fixture tests only.

static TOTAL: AtomicU64 = AtomicU64::new(0);
static TABLE: Mutex<Vec<u64>> = Mutex::new(Vec::new());

struct Tally {
    bytes: Cell<u64>,
}

impl Tally {
    fn note(&self, bytes: u64) {
        TOTAL.fetch_add(bytes, Relaxed); // line 13: fires (reached from on_alloc)
        self.bytes.set(self.bytes.get() + bytes);
    }
}

pub fn on_alloc(size: usize) {
    LEDGER.with(|t| {
        t.note(size as u64);
        let scratch = Box::new(size); // line 21: fires
        spend(t, size);
    });
}

pub fn on_dealloc(size: usize) {
    let _ = "TOTAL.fetch_sub(1) Box::new Vec::new";
    let freed: Vec<usize> = Vec::with_capacity(1); // line 28: fires
    // lint:allow(alloc-hook-local)
    TOTAL.fetch_sub(size as u64, Relaxed);
}

fn spend(t: &Tally, size: usize) {
    let _guard = TABLE.lock(); // line 34: fires (on_alloc -> spend)
    if t.bytes.get() > LIMIT {
        fold(t);
    }
}

/// Off the per-event path: runs once per LIMIT bytes.
#[cold]
fn fold(t: &Tally) {
    TOTAL.fetch_add(t.bytes.take(), Relaxed);
    TABLE.lock().push(Box::new(1).len() as u64);
}

/// A reader: nothing on the hook path calls it.
pub fn snapshot() -> Vec<u64> {
    let all: Vec<u64> = Vec::from_iter(TABLE.lock().iter().copied());
    TOTAL.fetch_max(0, Relaxed);
    all
}

#[cfg(test)]
mod tests {
    fn on_alloc(size: usize) {
        TOTAL.fetch_add(size as u64, Relaxed); // test code: exempt
    }
}
