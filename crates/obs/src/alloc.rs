//! Heap attribution: a tracking [`GlobalAlloc`] wrapper plus scoped
//! byte accounting.
//!
//! `VmHWM` (see [`crate::rss`]) says *that* the process bloats; this
//! module says *where*. Binaries opt in by installing [`TrackingAlloc`]:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: cajade_obs::alloc::TrackingAlloc = cajade_obs::alloc::TrackingAlloc;
//! ```
//!
//! Every allocation and free is then recorded in the allocating
//! thread's own ledger — plain `Cell` arithmetic, no atomics, no shared
//! cache lines — in three tallies:
//!
//! * **span** — cumulative per thread, never shared: what gives traced
//!   spans their `alloc_bytes`/`peak_bytes` deltas (the span guard
//!   samples on enter and exit);
//! * **pending** — the events not yet folded into the process-wide
//!   ledger ([`heap_stats`]: cumulative bytes/blocks allocated and
//!   freed, live bytes, and a peak-live watermark resettable per bench
//!   point via [`reset_peak`]);
//! * **scoped** — an [`AllocScope::enter`] RAII guard attributes
//!   allocations to a named scope ("materialize", "cache.apt", …).
//!   Scopes nest like spans and attribution is *inclusive*: bytes
//!   allocated under `refine_bfs` inside `mine` count toward both, the
//!   same way a nested span's wall time is inside its parent's. An
//!   event touches only the *innermost* open scope; a scope passes its
//!   totals (and its nested peak) on to its parent when it folds.
//!
//! A thread **folds** what it holds into the shared ledgers — each open
//! scope into its named ledger and its parent scope, innermost first,
//! then its pending events into the process ledger — every
//! [`FLUSH_BYTES`] of allocation traffic, when the thread itself reads
//! ([`heap_stats`], [`scope_snapshots`], the resets), and when it
//! exits. An [`AllocScope`] guard dropping (a [`ScopeHandle::install`]
//! returning is its guards dropping) folds that scope, and the pending
//! events too when it was the thread's last open guard; an `install` on
//! a thread with no guard open folds them even when its chain is empty.
//! So:
//!
//! * **totals are exact at quiescence** — every count of every thread
//!   that has no guard open and has not allocated since its last fold
//!   is in the shared ledgers, which is the state every reader in this
//!   workspace reads in (the request thread, after its fan-outs
//!   returned: a fan-out's resident workers fold each item as its
//!   `install` returns);
//! * **peaks are within a bound** — a thread's own nesting is exact,
//!   and what other threads have not yet folded is at most
//!   [`FLUSH_BYTES`] each, so a shared watermark is within
//!   `threads × FLUSH_BYTES` of the true one.
//!
//! Attribution is against the scope chain installed on the *allocating
//! thread*. Parallel stages fan out to worker threads, so the chain must
//! hop with the work: [`Ctx::capture`](crate::Ctx::capture) takes
//! [`current_scope`] before the fan-out and [`Ctx::enter`](crate::Ctx::enter)
//! [`ScopeHandle::install`]s it on each worker.
//!
//! The allocator's hooks never allocate, never lock, and run no atomic
//! read-modify-write (`tests/alloc_hook_local.rs` keeps it so); entering
//! a scope is lock-free and allocation-free once its name is interned.

use crate::registry::Registry;
use std::alloc::{GlobalAlloc, Layout, System};

// ---------------------------------------------------------------------------
// The allocator
// ---------------------------------------------------------------------------

/// A [`GlobalAlloc`] forwarding to [`System`] while maintaining the
/// thread / process / scoped ledgers.
pub struct TrackingAlloc;

// SAFETY: every hook delegates the actual memory operation to `System`
// with unmodified arguments and returns its pointer untouched, so
// `System`'s `GlobalAlloc` guarantees carry over; the ledger updates
// never allocate, never lock, and never dereference the managed
// pointers.
unsafe impl GlobalAlloc for TrackingAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwards `layout` unchanged to `System.alloc` under the
        // caller's `GlobalAlloc::alloc` contract; bookkeeping runs only on
        // success and does not touch the returned block.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ledger::on_alloc(layout.size());
        }
        p
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same delegation as `alloc`, via `System.alloc_zeroed`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ledger::on_alloc(layout.size());
        }
        p
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a block
        // previously returned by this allocator; both are passed straight
        // through to `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) };
        ledger::on_dealloc(layout.size());
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged to
        // `System.realloc` under the caller's contract; on success the old
        // size is retired and the new size recorded, without dereferencing
        // either block.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ledger::on_dealloc(layout.size());
            ledger::on_alloc(new_size);
        }
        p
    }
}

/// Allocation traffic (bytes allocated plus bytes freed) a thread keeps
/// in its own ledger before it folds into the shared ones. It bounds
/// what a reader can miss of a thread that is mid-stage: at most this
/// many bytes of live heap per thread, which is the error bound on
/// [`HeapStats::peak_live_bytes`] and [`ScopeSnapshot::peak_net_bytes`].
pub const FLUSH_BYTES: u64 = 1 << 20;

// ---------------------------------------------------------------------------
// Ledgers
// ---------------------------------------------------------------------------

mod ledger {
    use super::{HeapStats, ScopeSnapshot, FLUSH_BYTES};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
    use std::sync::OnceLock;

    /// Scopes a thread can have open at once. A chain deeper than this
    /// attributes to the deepest scope that fit.
    pub(super) const MAX_DEPTH: usize = 16;
    /// Distinct scope names; further names share the `(overflow)` ledger.
    const MAX_SCOPES: usize = 128;

    /// Counts moved out of a [`Tally`], on their way into a parent
    /// tally or a [`SharedTally`].
    struct Delta {
        allocated: u64,
        freed: u64,
        blocks_allocated: u64,
        blocks_freed: u64,
        /// High-water mark of net bytes over the period covered.
        peak: i64,
    }

    impl Delta {
        fn net(&self) -> i64 {
            self.allocated.wrapping_sub(self.freed) as i64
        }
    }

    /// Thread-owned event counts: what the allocator hooks write.
    struct Tally {
        allocated: Cell<u64>,
        freed: Cell<u64>,
        blocks_allocated: Cell<u64>,
        blocks_freed: Cell<u64>,
        /// High-water mark of [`Tally::net`] since the last `take`.
        peak: Cell<i64>,
    }

    impl Tally {
        const fn new() -> Tally {
            Tally {
                allocated: Cell::new(0),
                freed: Cell::new(0),
                blocks_allocated: Cell::new(0),
                blocks_freed: Cell::new(0),
                peak: Cell::new(0),
            }
        }

        #[inline]
        fn net(&self) -> i64 {
            self.allocated.get().wrapping_sub(self.freed.get()) as i64
        }

        #[inline]
        fn on_alloc(&self, bytes: u64) {
            self.allocated.set(self.allocated.get().wrapping_add(bytes));
            self.blocks_allocated.set(self.blocks_allocated.get() + 1);
            let net = self.net();
            if net > self.peak.get() {
                self.peak.set(net);
            }
        }

        #[inline]
        fn on_dealloc(&self, bytes: u64) {
            self.freed.set(self.freed.get().wrapping_add(bytes));
            self.blocks_freed.set(self.blocks_freed.get() + 1);
        }

        /// Moves the counts out, leaving the tally at zero.
        fn take(&self) -> Delta {
            Delta {
                allocated: self.allocated.take(),
                freed: self.freed.take(),
                blocks_allocated: self.blocks_allocated.take(),
                blocks_freed: self.blocks_freed.take(),
                peak: self.peak.take(),
            }
        }

        /// Adds a nested scope's counts. The parent's own net did not
        /// move while the child was innermost, so the child's peak sits
        /// on top of it — the nested peak is exact.
        fn absorb(&self, d: &Delta) {
            self.peak.set(self.peak.get().max(self.net() + d.peak));
            self.allocated
                .set(self.allocated.get().wrapping_add(d.allocated));
            self.freed.set(self.freed.get().wrapping_add(d.freed));
            self.blocks_allocated
                .set(self.blocks_allocated.get() + d.blocks_allocated);
            self.blocks_freed
                .set(self.blocks_freed.get() + d.blocks_freed);
        }
    }

    /// A ledger threads fold into: the process-wide one and one per
    /// scope name.
    struct SharedTally {
        allocated: AtomicU64,
        freed: AtomicU64,
        blocks_allocated: AtomicU64,
        blocks_freed: AtomicU64,
        net: AtomicI64,
        peak: AtomicI64,
    }

    impl SharedTally {
        const fn new() -> SharedTally {
            SharedTally {
                allocated: AtomicU64::new(0),
                freed: AtomicU64::new(0),
                blocks_allocated: AtomicU64::new(0),
                blocks_freed: AtomicU64::new(0),
                net: AtomicI64::new(0),
                peak: AtomicI64::new(0),
            }
        }

        // All `Relaxed`: these are statistics, they publish no other data.
        fn absorb(&self, d: &Delta) {
            if d.blocks_allocated == 0 && d.blocks_freed == 0 {
                // Nothing happened: leave the shared lines alone.
                return;
            }
            self.allocated.fetch_add(d.allocated, Relaxed);
            self.freed.fetch_add(d.freed, Relaxed);
            self.blocks_allocated.fetch_add(d.blocks_allocated, Relaxed);
            self.blocks_freed.fetch_add(d.blocks_freed, Relaxed);
            let before = self.net.fetch_add(d.net(), Relaxed);
            self.peak.fetch_max(before + d.peak, Relaxed);
        }

        fn rebase_peak(&self) {
            self.peak.store(self.net.load(Relaxed), Relaxed);
        }
    }

    static GLOBAL: SharedTally = SharedTally::new();

    /// Per-scope ledger, interned by name in [`SCOPES`].
    pub(super) struct ScopeStats {
        name: &'static str,
        tally: SharedTally,
    }

    impl ScopeStats {
        const fn new(name: &'static str) -> ScopeStats {
            ScopeStats {
                name,
                tally: SharedTally::new(),
            }
        }

        fn snapshot(&self) -> ScopeSnapshot {
            ScopeSnapshot {
                name: self.name,
                allocated_bytes: self.tally.allocated.load(Relaxed),
                freed_bytes: self.tally.freed.load(Relaxed),
                allocated_blocks: self.tally.blocks_allocated.load(Relaxed),
                freed_blocks: self.tally.blocks_freed.load(Relaxed),
                net_bytes: self.tally.net.load(Relaxed),
                peak_net_bytes: self.tally.peak.load(Relaxed),
            }
        }
    }

    /// Filled front to back, never emptied: a lookup is a scan of
    /// initialised cells, so it takes no lock and allocates nothing.
    static SCOPES: [OnceLock<ScopeStats>; MAX_SCOPES] = [const { OnceLock::new() }; MAX_SCOPES];
    static OVERFLOW: ScopeStats = ScopeStats::new("(overflow)");

    /// Looks up (or interns) the ledger for `name`. Names compare by
    /// content, so distinct `&'static str`s with equal text share a ledger.
    pub(super) fn stats_for(name: &'static str) -> &'static ScopeStats {
        for cell in &SCOPES {
            let stats = cell.get_or_init(|| ScopeStats::new(name));
            if stats.name == name {
                return stats;
            }
        }
        &OVERFLOW
    }

    fn interned() -> impl Iterator<Item = &'static ScopeStats> {
        let overflowed = OVERFLOW.tally.blocks_allocated.load(Relaxed) > 0;
        SCOPES
            .iter()
            .map_while(OnceLock::get)
            .chain(overflowed.then_some(&OVERFLOW))
    }

    /// One open scope on this thread's chain.
    struct Node {
        /// `None` once the guard dropped out of order: the node stays
        /// in place, passing what folds into it on to its parent.
        stats: Cell<Option<&'static ScopeStats>>,
        /// Outermost node of an installed chain: the chain below it is
        /// hidden, so nothing folds past it.
        root: Cell<bool>,
        tally: Tally,
    }

    struct ThreadLedger {
        /// Cumulative for the thread, never folded: span windows read
        /// it and re-base its peak.
        span: Tally,
        /// Events not yet folded into [`GLOBAL`].
        pending: Tally,
        /// Traffic left before the next forced fold. Starts at zero, so
        /// a thread's first event takes the slow path and registers the
        /// exit fold.
        budget: Cell<i64>,
        /// Open scopes: `nodes[..depth]`, innermost last. Nodes at and
        /// above `depth` hold zero tallies.
        depth: Cell<usize>,
        nodes: [Node; MAX_DEPTH],
    }

    impl ThreadLedger {
        #[inline]
        fn innermost(&self) -> Option<&Node> {
            self.nodes.get(self.depth.get().wrapping_sub(1))
        }

        #[inline]
        fn spend(&self, bytes: u64) {
            let left = self.budget.get() - bytes as i64;
            self.budget.set(left);
            if left < 0 {
                self.out_of_budget();
            }
        }

        #[cold]
        fn out_of_budget(&self) {
            // Re-armed first, so that whatever registering the exit fold
            // allocates takes the fast path.
            self.budget.set(FLUSH_BYTES as i64);
            if EXIT_FOLD.try_with(|_| ()).is_err() {
                // The exit fold already ran: nothing folds for this
                // thread later, so each remaining event folds at once.
                self.budget.set(0);
            }
            self.fold_all();
        }

        /// Folds everything this thread holds into the shared ledgers.
        fn fold_all(&self) {
            for i in (0..self.depth.get()).rev() {
                self.fold_node(i);
            }
            GLOBAL.absorb(&self.pending.take());
        }

        /// Folds `nodes[i]` into its named ledger and its parent node.
        fn fold_node(&self, i: usize) {
            let node = &self.nodes[i];
            let d = node.tally.take();
            if let Some(stats) = node.stats.get() {
                stats.tally.absorb(&d);
            }
            if i > 0 && !node.root.get() {
                self.nodes[i - 1].tally.absorb(&d);
            }
        }

        /// Opens a scope; `None` when the chain is full.
        fn push(&self, stats: &'static ScopeStats, root: bool) -> Option<usize> {
            let slot = self.depth.get();
            let node = self.nodes.get(slot)?;
            node.stats.set(Some(stats));
            node.root.set(root);
            self.depth.set(slot + 1);
            Some(slot)
        }

        /// Closes the scope at `slot`.
        fn pop(&self, slot: usize) {
            if slot + 1 != self.depth.get() {
                // Out of order: settle what the scope has seen so far
                // and leave its node as a pass-through until the scopes
                // above it close.
                self.fold_all();
                self.nodes[slot].stats.set(None);
                return;
            }
            let mut top = slot;
            loop {
                self.fold_node(top);
                self.depth.set(top);
                if top == 0 || self.nodes[top - 1].stats.get().is_some() {
                    break;
                }
                top -= 1;
            }
            if self.depth.get() == 0 {
                GLOBAL.absorb(&self.pending.take());
            }
        }
    }

    /// Folds the thread's ledger when the thread exits.
    struct ExitFold;

    impl Drop for ExitFold {
        fn drop(&mut self) {
            LEDGER.with(|t| {
                t.budget.set(0);
                t.fold_all();
            });
        }
    }

    thread_local! {
        // Const-initialized `Cell`s: no lazy-init allocation, no
        // destructor, so the allocator hooks can touch the ledger from
        // any allocation context, thread teardown included.
        static LEDGER: ThreadLedger = const {
            ThreadLedger {
                span: Tally::new(),
                pending: Tally::new(),
                budget: Cell::new(0),
                depth: Cell::new(0),
                nodes: [const {
                    Node {
                        stats: Cell::new(None),
                        root: Cell::new(false),
                        tally: Tally::new(),
                    }
                }; MAX_DEPTH],
            }
        };
        static EXIT_FOLD: ExitFold = const { ExitFold };
    }

    #[inline]
    pub(super) fn on_alloc(size: usize) {
        let bytes = size as u64;
        LEDGER.with(|t| {
            t.span.on_alloc(bytes);
            t.pending.on_alloc(bytes);
            if let Some(node) = t.innermost() {
                node.tally.on_alloc(bytes);
            }
            t.spend(bytes);
        });
    }

    #[inline]
    pub(super) fn on_dealloc(size: usize) {
        let bytes = size as u64;
        LEDGER.with(|t| {
            t.span.on_dealloc(bytes);
            t.pending.on_dealloc(bytes);
            if let Some(node) = t.innermost() {
                node.tally.on_dealloc(bytes);
            }
            t.spend(bytes);
        });
    }

    pub(super) fn enter(name: &'static str) -> Option<usize> {
        let stats = stats_for(name);
        LEDGER.with(|t| t.push(stats, false))
    }

    pub(super) fn exit(slot: usize) {
        LEDGER.with(|t| t.pop(slot));
    }

    /// The calling thread's visible chain, outermost first.
    pub(super) type Chain = [Option<&'static ScopeStats>; MAX_DEPTH];

    pub(super) fn current_chain() -> Chain {
        let mut chain: Chain = [None; MAX_DEPTH];
        LEDGER.with(|t| {
            let open = &t.nodes[..t.depth.get()];
            // An installed chain hides what lies below its root.
            let visible = open.iter().rposition(|n| n.root.get()).unwrap_or(0);
            let named = open[visible..].iter().filter_map(|n| n.stats.get());
            for (slot, stats) in chain.iter_mut().zip(named) {
                *slot = Some(stats);
            }
        });
        chain
    }

    /// A chain installed over the thread's own; dropping it closes the
    /// installed scopes and uncovers the previous chain.
    pub(super) struct Installed {
        base: usize,
    }

    impl Installed {
        pub(super) fn push(chain: &Chain) -> Installed {
            LEDGER.with(|t| {
                let base = t.depth.get();
                for (i, stats) in chain.iter().flatten().enumerate() {
                    t.push(stats, i == 0);
                }
                Installed { base }
            })
        }
    }

    impl Drop for Installed {
        fn drop(&mut self) {
            LEDGER.with(|t| {
                while t.depth.get() > self.base {
                    t.pop(t.depth.get() - 1);
                }
                // An empty chain pushed no guard to fold the events.
                if self.base == 0 {
                    GLOBAL.absorb(&t.pending.take());
                }
            });
        }
    }

    /// `(allocated, live, peak)` of the thread's span tally.
    pub(super) fn span_sample() -> (u64, i64, i64) {
        LEDGER.with(|t| (t.span.allocated.get(), t.span.net(), t.span.peak.get()))
    }

    pub(super) fn set_span_peak(peak: i64) {
        LEDGER.with(|t| t.span.peak.set(peak));
    }

    pub(super) fn tracking_active() -> bool {
        GLOBAL.allocated.load(Relaxed) > 0
    }

    pub(super) fn heap_stats() -> HeapStats {
        LEDGER.with(ThreadLedger::fold_all);
        HeapStats {
            allocated_bytes: GLOBAL.allocated.load(Relaxed),
            freed_bytes: GLOBAL.freed.load(Relaxed),
            allocated_blocks: GLOBAL.blocks_allocated.load(Relaxed),
            freed_blocks: GLOBAL.blocks_freed.load(Relaxed),
            live_bytes: GLOBAL.net.load(Relaxed),
            peak_live_bytes: GLOBAL.peak.load(Relaxed),
        }
    }

    pub(super) fn reset_peak() {
        LEDGER.with(ThreadLedger::fold_all);
        GLOBAL.rebase_peak();
    }

    pub(super) fn reset_scope_peaks() {
        LEDGER.with(ThreadLedger::fold_all);
        interned().for_each(|s| s.tally.rebase_peak());
    }

    pub(super) fn scope_snapshots() -> Vec<ScopeSnapshot> {
        LEDGER.with(ThreadLedger::fold_all);
        interned().map(ScopeStats::snapshot).collect()
    }
}

// ---------------------------------------------------------------------------
// Scoped attribution API
// ---------------------------------------------------------------------------

/// RAII guard attributing this thread's allocations to a named scope
/// while alive. Nestable; attribution is inclusive up the chain. Must
/// stay on the thread that created it (like [`SpanGuard`](crate::SpanGuard)).
pub struct AllocScope {
    /// The guard's place on the thread's chain; `None` when the chain
    /// was full and the enclosing scope keeps the attribution.
    slot: Option<usize>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl AllocScope {
    /// Enters scope `name` on the current thread.
    #[inline]
    pub fn enter(name: &'static str) -> AllocScope {
        AllocScope {
            slot: ledger::enter(name),
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            ledger::exit(slot);
        }
    }
}

/// A snapshot of the current thread's scope chain, for re-installing on
/// worker threads across a parallel fan-out. Cheap to clone; an empty
/// handle (no scope active) installs nothing.
#[derive(Clone, Default)]
pub struct ScopeHandle {
    chain: ledger::Chain,
}

/// Captures the scope chain active on the current thread, for
/// [`ScopeHandle::install`] on each worker of a parallel stage.
pub fn current_scope() -> ScopeHandle {
    ScopeHandle {
        chain: ledger::current_chain(),
    }
}

impl ScopeHandle {
    /// Runs `f` with this chain in place of the current thread's own,
    /// restoring the previous chain on exit (including unwind). What
    /// `f` allocated is folded into the shared ledgers by then.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _installed = ledger::Installed::push(&self.chain);
        f()
    }
}

// ---------------------------------------------------------------------------
// Span integration (crate-internal)
// ---------------------------------------------------------------------------

/// Thread-memory sample taken when a span opens.
#[derive(Clone, Copy)]
pub(crate) struct SpanMem {
    allocated0: u64,
    live0: i64,
    saved_peak: i64,
}

/// Samples the thread ledger at span start and re-bases the thread peak
/// so the span sees its own high-water mark.
#[inline]
pub(crate) fn span_mem_enter() -> SpanMem {
    let (allocated0, live0, saved_peak) = ledger::span_sample();
    ledger::set_span_peak(live0);
    SpanMem {
        allocated0,
        live0,
        saved_peak,
    }
}

/// Closes a span's memory window: returns `(alloc_bytes, peak_bytes)` —
/// bytes allocated on this thread during the span, and the span's
/// peak-live growth over its starting live level — and restores the
/// enclosing span's peak watermark.
#[inline]
pub(crate) fn span_mem_exit(s: SpanMem) -> (u64, u64) {
    let (allocated, _, peak) = ledger::span_sample();
    ledger::set_span_peak(peak.max(s.saved_peak));
    (
        allocated.saturating_sub(s.allocated0),
        (peak - s.live0).max(0) as u64,
    )
}

// ---------------------------------------------------------------------------
// Snapshots, resets, registry mirroring
// ---------------------------------------------------------------------------

/// Process heap ledger at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// Cumulative bytes allocated.
    pub allocated_bytes: u64,
    /// Cumulative bytes freed.
    pub freed_bytes: u64,
    /// Cumulative allocations.
    pub allocated_blocks: u64,
    /// Cumulative frees.
    pub freed_blocks: u64,
    /// Currently live bytes (allocated − freed).
    pub live_bytes: i64,
    /// Peak live bytes since process start or the last [`reset_peak`].
    pub peak_live_bytes: i64,
}

/// Per-scope ledger at a point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeSnapshot {
    /// Scope name as passed to [`AllocScope::enter`].
    pub name: &'static str,
    /// Cumulative bytes allocated under this scope.
    pub allocated_bytes: u64,
    /// Cumulative bytes freed under this scope.
    pub freed_bytes: u64,
    /// Cumulative allocations under this scope.
    pub allocated_blocks: u64,
    /// Cumulative frees under this scope.
    pub freed_blocks: u64,
    /// Net bytes (allocated − freed under this scope). Negative when a
    /// scope frees more than it allocates (e.g. a drop-heavy phase).
    pub net_bytes: i64,
    /// Peak net bytes since process start or [`reset_scope_peaks`].
    pub peak_net_bytes: i64,
}

/// `true` once [`TrackingAlloc`] has observed at least one allocation —
/// i.e. the binary actually installed it. All byte surfaces report
/// "tracking disabled" otherwise.
pub fn tracking_active() -> bool {
    ledger::tracking_active()
}

/// The process heap ledger, or `None` when tracking is not active.
/// Folds the calling thread's ledger first, so the caller's own events
/// are always included.
pub fn heap_stats() -> Option<HeapStats> {
    let stats = ledger::heap_stats();
    tracking_active().then_some(stats)
}

/// Rebases the global peak-live watermark to the current live level
/// (sweep harnesses call this between scale points, mirroring
/// [`reset_peak_rss`](crate::reset_peak_rss)).
pub fn reset_peak() {
    ledger::reset_peak();
}

/// Rebases every scope's peak-net watermark to its current net level.
pub fn reset_scope_peaks() {
    ledger::reset_scope_peaks();
}

/// Snapshots of every scope ever entered, sorted by name. Folds the
/// calling thread's open scopes first, so a scope reads correctly from
/// inside its own guard.
pub fn scope_snapshots() -> Vec<ScopeSnapshot> {
    let mut out = ledger::scope_snapshots();
    out.sort_by_key(|s| s.name);
    out
}

/// Snapshot of one scope by name, if it has ever been entered.
pub fn scope_snapshot(name: &str) -> Option<ScopeSnapshot> {
    scope_snapshots().into_iter().find(|s| s.name == name)
}

/// Gauge name for current live heap bytes.
pub const HEAP_LIVE_GAUGE: &str = "heap_live_bytes";
/// Gauge name for the peak-live heap watermark.
pub const HEAP_PEAK_GAUGE: &str = "heap_peak_live_bytes";
/// Gauge name for cumulative allocated heap bytes.
pub const HEAP_ALLOCATED_GAUGE: &str = "heap_allocated_bytes";
/// Gauge name for cumulative freed heap bytes.
pub const HEAP_FREED_GAUGE: &str = "heap_freed_bytes";

/// Mirrors the global ledger and every scope into `registry` gauges:
/// [`HEAP_LIVE_GAUGE`] / [`HEAP_PEAK_GAUGE`] / [`HEAP_ALLOCATED_GAUGE`] /
/// [`HEAP_FREED_GAUGE`] globally, and per scope
/// `mem_scope_<name>_{net,peak,allocated}_bytes` (scope names are
/// sanitized: non-alphanumerics become `_`). When tracking is inactive
/// the gauges are left untouched — absent, never wrong — matching
/// [`record_rss`](crate::record_rss) on platforms without `/proc`.
pub fn record_alloc(registry: &Registry) -> Option<HeapStats> {
    let stats = heap_stats()?;
    registry
        .gauge(HEAP_LIVE_GAUGE)
        .set(stats.live_bytes.max(0) as u64);
    registry
        .gauge(HEAP_PEAK_GAUGE)
        .set(stats.peak_live_bytes.max(0) as u64);
    registry
        .gauge(HEAP_ALLOCATED_GAUGE)
        .set(stats.allocated_bytes);
    registry.gauge(HEAP_FREED_GAUGE).set(stats.freed_bytes);
    for s in scope_snapshots() {
        let base = sanitize(s.name);
        registry
            .gauge(&format!("mem_scope_{base}_net_bytes"))
            .set(s.net_bytes.max(0) as u64);
        registry
            .gauge(&format!("mem_scope_{base}_peak_bytes"))
            .set(s.peak_net_bytes.max(0) as u64);
        registry
            .gauge(&format!("mem_scope_{base}_allocated_bytes"))
            .set(s.allocated_bytes);
    }
    Some(stats)
}

/// Replaces every non-alphanumeric with `_` for metric-name embedding.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The obs test binary installs TrackingAlloc (see lib.rs), so these
    // tests observe real attribution.

    /// An event touches the innermost scope only, so what a tracked
    /// alloc/free pair costs must not grow with the depth of the chain.
    /// Relative and best of 5, so neither a debug build nor a noisy box
    /// moves it.
    #[test]
    fn scope_depth_does_not_multiply_alloc_cost() {
        fn best_ns_per_pair() -> u64 {
            let n = 200_000u64;
            (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    for i in 0..n {
                        let b = Box::new(i);
                        std::hint::black_box(&b);
                    }
                    t0.elapsed().as_nanos() as u64 / n
                })
                .min()
                .unwrap()
        }
        let flat = best_ns_per_pair();
        let _chain =
            ["test.depth1", "test.depth2", "test.depth3", "test.depth4"].map(AllocScope::enter);
        let deep = best_ns_per_pair();
        assert!(
            deep <= 2 * flat.max(1),
            "alloc+free pair: {deep} ns under a 4-deep chain vs {flat} ns unscoped"
        );
    }

    #[test]
    fn global_ledger_tracks_alloc_and_free() {
        let _serial = crate::big_alloc_test_lock();
        let before = heap_stats().expect("tracking active in obs tests");
        let v = vec![0u8; 1 << 20];
        let mid = heap_stats().unwrap();
        assert!(mid.allocated_bytes >= before.allocated_bytes + (1 << 20));
        assert!(mid.live_bytes >= before.live_bytes);
        drop(v);
        let after = heap_stats().unwrap();
        assert!(after.freed_bytes >= mid.freed_bytes + (1 << 20));
    }

    #[test]
    fn scopes_attribute_inclusively_and_nest() {
        let outer = AllocScope::enter("test.outer");
        let keep_outer = vec![1u8; 300_000];
        let inner_net;
        {
            let _inner = AllocScope::enter("test.inner");
            let keep_inner = vec![2u8; 200_000];
            let tmp = vec![3u8; 100_000];
            drop(tmp);
            std::mem::forget(keep_inner); // stays net-allocated forever
            inner_net = scope_snapshot("test.inner").unwrap().net_bytes;
        }
        drop(outer);
        drop(keep_outer);
        let inner = scope_snapshot("test.inner").unwrap();
        let outer = scope_snapshot("test.outer").unwrap();
        // Inner allocated ≥ 300 kB (kept + temp), net ≥ 200 kB while the
        // kept buffer lives; outer saw everything inner saw (inclusive).
        assert!(inner.allocated_bytes >= 300_000, "{inner:?}");
        assert!(inner_net >= 200_000, "inner net {inner_net}");
        assert!(
            outer.allocated_bytes >= inner.allocated_bytes + 300_000 - 64,
            "{outer:?}"
        );
        assert!(outer.peak_net_bytes >= 500_000, "{outer:?}");
    }

    /// A guard dropped before the guards opened after it stops
    /// attributing at once; the scopes above it carry on.
    #[test]
    fn out_of_order_drop_closes_only_its_own_scope() {
        let first = AllocScope::enter("test.ooo.first");
        let second = AllocScope::enter("test.ooo.second");
        let before = vec![0u8; 100_000];
        drop(first);
        let after = vec![0u8; 50_000];
        drop(second);
        drop((before, after));
        let first = scope_snapshot("test.ooo.first").unwrap().allocated_bytes;
        let second = scope_snapshot("test.ooo.second").unwrap().allocated_bytes;
        assert!((100_000..150_000).contains(&first), "{first}");
        assert!(second >= 150_000, "{second}");
    }

    /// `install` puts the handle's chain in place of the thread's own
    /// (a fan-out that runs inline must attribute as its workers would),
    /// and capturing inside it sees the installed chain only.
    #[test]
    fn install_hides_the_threads_own_chain() {
        let handle = {
            let _scope = AllocScope::enter("test.install.captured");
            current_scope()
        };
        let _own = AllocScope::enter("test.install.own");
        handle.install(|| {
            let v = vec![0u8; 100_000];
            std::hint::black_box(&v);
            current_scope().install(|| std::hint::black_box(vec![0u8; 50_000]));
        });
        let own = scope_snapshot("test.install.own").unwrap().allocated_bytes;
        let captured = scope_snapshot("test.install.captured").unwrap();
        assert!(own < 50_000, "{own}");
        assert!(captured.allocated_bytes >= 150_000, "{captured:?}");
    }

    #[test]
    fn span_mem_window_sees_nested_peaks() {
        let outer = span_mem_enter();
        let tmp = vec![0u8; 1 << 20];
        std::hint::black_box(&tmp);
        drop(tmp);
        let inner = span_mem_enter();
        let small = vec![0u8; 4096];
        std::hint::black_box(&small);
        let (inner_alloc, inner_peak) = span_mem_exit(inner);
        drop(small);
        let (outer_alloc, outer_peak) = span_mem_exit(outer);
        assert!((4096..1 << 20).contains(&inner_alloc), "{inner_alloc}");
        assert!(inner_peak >= 4096, "{inner_peak}");
        assert!(outer_alloc >= (1 << 20) + 4096, "{outer_alloc}");
        // The outer window's peak covers the 1 MB temp even though it was
        // freed before the inner window opened.
        assert!(outer_peak >= (1 << 20), "{outer_peak}");
    }

    #[test]
    fn peak_resets_rebase_to_live() {
        // Serialized against the other large-allocation tests in this
        // binary (alloc + rss) so a concurrent 64 MB spike cannot land
        // between the reset and the readback.
        let _serial = crate::big_alloc_test_lock();
        let tmp = vec![0u8; 16 << 20];
        std::hint::black_box(&tmp);
        drop(tmp);
        reset_peak();
        let s = heap_stats().unwrap();
        // Small-allocation tests may still run concurrently; allow slack
        // well under the 16 MB temp the reset must have discarded.
        assert!(
            s.peak_live_bytes <= s.live_bytes + (4 << 20),
            "peak {} not rebased near live {}",
            s.peak_live_bytes,
            s.live_bytes
        );
    }

    #[test]
    fn record_alloc_mirrors_gauges() {
        let _scope = AllocScope::enter("test.mirror");
        let v = vec![0u8; 65536];
        std::hint::black_box(&v);
        let reg = Registry::new();
        record_alloc(&reg).expect("tracking active");
        let snap = reg.snapshot();
        let get = |name: &str| snap.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert!(get(HEAP_LIVE_GAUGE).unwrap() > 0);
        assert!(get(HEAP_PEAK_GAUGE).unwrap() >= get(HEAP_LIVE_GAUGE).unwrap());
        assert!(get("mem_scope_test_mirror_allocated_bytes").unwrap() >= 65536);
    }
}
