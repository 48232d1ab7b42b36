//! The heap ledger's read contract, checked against oracles: totals are
//! exact once the threads that allocated have folded, the process peak
//! is within `threads × FLUSH_BYTES` of the true one, a block freed on
//! another thread outside the scope leaves the scope's net alone, and a
//! thread that stays alive has folded each `Ctx::enter` by its return.
//!
//! One `#[test]`, because the process-wide ledger is what is under
//! test: a second test running beside it (or the harness printing its
//! result) would allocate inside the measured windows. Inside a window
//! the measuring thread only waits on barriers, which do not allocate.

use std::sync::Barrier;

use cajade_obs::alloc::{
    current_scope, heap_stats, reset_peak, scope_snapshot, HeapStats, ScopeSnapshot, FLUSH_BYTES,
};
use cajade_obs::{AllocScope, Collector, Ctx};

#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const WORKERS: usize = 4;

#[test]
fn ledger_contract() {
    totals_are_exact_once_workers_folded();
    process_peak_is_within_the_flush_bound();
    cross_thread_free_leaves_scope_net_alone();
    exiting_thread_folds_what_it_held();
    parked_thread_folds_each_enter();
}

fn scope(name: &str) -> ScopeSnapshot {
    scope_snapshot(name).expect("scope was entered")
}

fn heap() -> HeapStats {
    heap_stats().expect("tracking allocator installed")
}

/// `thread::scope` only waits for its threads' closures to return; a
/// thread still exiting would fold into the next part's window.
fn join_all(workers: Vec<std::thread::ScopedJoinHandle<'_, ()>>) {
    for w in workers {
        w.join().expect("worker panicked");
    }
}

/// One exact-size heap block: `Vec<u8>` asks the allocator for exactly
/// its capacity.
fn block(bytes: usize) -> Vec<u8> {
    Vec::with_capacity(bytes)
}

/// (a) `WORKERS` threads under one installed handle run a known
/// schedule — several `FLUSH_BYTES` of traffic each, so threshold folds
/// happen mid-way — and every tenth block stays live.
fn totals_are_exact_once_workers_folded() {
    const ROUNDS: usize = 20_000;
    let size = |w: usize, i: usize| 16 + (i * 7 + w * 13) % 500;
    let kept = |i: usize| i.is_multiple_of(10);

    let handle = {
        let _scope = AllocScope::enter("ledger.exact");
        current_scope()
    };
    // Workers and this thread meet at it four times: started, go, done,
    // read. A worker must not exit before the read — exiting frees what
    // spawning it allocated.
    let step = Barrier::new(WORKERS + 1);
    std::thread::scope(|s| {
        let workers = Vec::from_iter((0..WORKERS).map(|w| {
            let (handle, step) = (handle.clone(), &step);
            s.spawn(move || {
                // Fold what starting the thread allocated, so the window
                // below holds the schedule and nothing else.
                handle.install(|| ());
                step.wait();
                step.wait();
                handle.install(|| {
                    for i in 0..ROUNDS {
                        let b = block(size(w, i));
                        if kept(i) {
                            std::mem::forget(b);
                        }
                    }
                });
                step.wait();
                step.wait();
            })
        }));
        step.wait();
        // Scope first, heap last: the heap read folds what the scope
        // read allocated on this thread.
        let scope0 = scope("ledger.exact");
        let heap0 = heap();
        step.wait();
        step.wait();
        let heap1 = heap();
        let scope1 = scope("ledger.exact");
        step.wait();
        join_all(workers);

        let all = (0..WORKERS).flat_map(|w| (0..ROUNDS).map(move |i| (i, size(w, i) as u64)));
        let allocated: u64 = all.clone().map(|(_, b)| b).sum();
        let live: u64 = all.clone().filter(|&(i, _)| kept(i)).map(|(_, b)| b).sum();
        let blocks = (WORKERS * ROUNDS) as u64;
        let live_blocks = all.filter(|&(i, _)| kept(i)).count() as u64;
        assert!(allocated > 4 * WORKERS as u64 * FLUSH_BYTES, "{allocated}");

        assert_eq!(heap1.allocated_bytes - heap0.allocated_bytes, allocated);
        assert_eq!(heap1.freed_bytes - heap0.freed_bytes, allocated - live);
        assert_eq!(heap1.allocated_blocks - heap0.allocated_blocks, blocks);
        assert_eq!(
            heap1.freed_blocks - heap0.freed_blocks,
            blocks - live_blocks
        );
        assert_eq!(heap1.live_bytes - heap0.live_bytes, live as i64);

        assert_eq!(scope1.allocated_bytes - scope0.allocated_bytes, allocated);
        assert_eq!(scope1.freed_bytes - scope0.freed_bytes, allocated - live);
        assert_eq!(scope1.allocated_blocks - scope0.allocated_blocks, blocks);
        assert_eq!(
            scope1.freed_blocks - scope0.freed_blocks,
            blocks - live_blocks
        );
        assert_eq!(scope1.net_bytes - scope0.net_bytes, live as i64);
    });
}

/// (b) Every worker holds 2.5 × `FLUSH_BYTES` in small blocks at the
/// same moment. The true peak is known; the reported one may miss at
/// most what each thread had not yet folded.
fn process_peak_is_within_the_flush_bound() {
    const CHUNK: usize = 1024;
    const CHUNKS: usize = (FLUSH_BYTES as usize * 5 / 2) / CHUNK;
    let held_per_worker = CHUNKS * (CHUNK + std::mem::size_of::<Vec<u8>>());

    let step = Barrier::new(WORKERS + 1);
    let holding = Barrier::new(WORKERS);
    std::thread::scope(|s| {
        let workers = Vec::from_iter((0..WORKERS).map(|_| {
            let (step, holding) = (&step, &holding);
            s.spawn(move || {
                // A thread's last guard dropping folds it: what starting
                // the thread allocated stays out of the window.
                drop(AllocScope::enter("ledger.peak"));
                step.wait();
                step.wait();
                {
                    let _scope = AllocScope::enter("ledger.peak");
                    let mut held: Vec<Vec<u8>> = Vec::with_capacity(CHUNKS);
                    held.extend((0..CHUNKS).map(|_| block(CHUNK)));
                    holding.wait();
                }
                step.wait();
                step.wait();
            })
        }));
        step.wait();
        reset_peak();
        let live0 = heap().live_bytes;
        step.wait();
        step.wait();
        let after = heap();
        step.wait();
        join_all(workers);
        assert_eq!(after.live_bytes, live0, "everything held was freed");
        let true_peak = live0 + (WORKERS * held_per_worker) as i64;
        let bound = (WORKERS as u64 * FLUSH_BYTES) as i64;
        assert!(
            (after.peak_live_bytes - true_peak).abs() <= bound,
            "peak {} vs true {true_peak}: off by more than {bound}",
            after.peak_live_bytes
        );
    });
}

/// (c) A block allocated under a scope on a worker and freed unscoped
/// on this thread stays in the scope's net (that is what makes
/// `cache.apt` report what the cache retains) and leaves the heap.
fn cross_thread_free_leaves_scope_net_alone() {
    const SIZE: usize = 300_000;
    let buf = std::thread::scope(|s| {
        s.spawn(|| {
            let _scope = AllocScope::enter("ledger.handoff");
            block(SIZE)
        })
        .join()
        .unwrap()
    });
    let held = heap();
    drop(buf);
    let freed = heap();
    assert_eq!(freed.live_bytes, held.live_bytes - SIZE as i64);
    assert_eq!(freed.freed_blocks, held.freed_blocks + 1);
    let scope = scope("ledger.handoff");
    assert_eq!(
        (scope.allocated_bytes, scope.allocated_blocks),
        (SIZE as u64, 1)
    );
    assert_eq!((scope.freed_bytes, scope.freed_blocks), (0, 0));
    assert_eq!(scope.net_bytes, SIZE as i64);
    assert_eq!(scope.peak_net_bytes, SIZE as i64);
}

/// A thread that never opens a scope and stays under `FLUSH_BYTES`
/// folds only when it exits; what it leaked must still be counted.
fn exiting_thread_folds_what_it_held() {
    const LEAKED: usize = 12_345;
    let spawn_and_leak = |bytes: usize| {
        std::thread::spawn(move || std::mem::forget(block(bytes)))
            .join()
            .unwrap()
    };
    // Whatever the first spawn initialises for the process stays out of
    // the measured one.
    spawn_and_leak(1);
    let before = heap();
    spawn_and_leak(LEAKED);
    let after = heap();
    assert_eq!(after.live_bytes - before.live_bytes, LEAKED as i64);
    assert_eq!(
        (after.allocated_blocks - after.freed_blocks)
            - (before.allocated_blocks - before.freed_blocks),
        1
    );
}

/// A resident fan-out worker never exits, so what it allocates inside
/// `Ctx::enter` must be in the process ledger once `enter` returned —
/// with no scope captured (an empty chain still folds), and with a
/// trace (whose own hop allocates: the chain is installed outermost, so
/// the hop's free is folded too). The worker parks on a barrier while
/// this thread reads.
fn parked_thread_folds_each_enter() {
    const LEAKED: usize = 12_345;
    let plain = Ctx::capture();
    let traced = Collector::new().with(Some(1), Ctx::capture);
    let step = Barrier::new(2);
    let deltas = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            // Touch every thread-local the hops use, then fold, so the
            // windows below hold the hop and the leak and nothing else.
            plain.enter(|| ());
            traced.enter(|| ());
            drop(AllocScope::enter("ledger.parked"));
            for ctx in [&plain, &traced] {
                step.wait();
                step.wait();
                ctx.enter(|| std::mem::forget(block(LEAKED)));
                step.wait();
            }
            step.wait();
        });
        let deltas = [(); 2].map(|()| {
            step.wait();
            let before = heap();
            step.wait();
            step.wait();
            let after = heap();
            (before, after)
        });
        step.wait();
        worker.join().expect("worker panicked");
        deltas
    });
    for (ctx, (before, after)) in ["plain", "traced"].iter().zip(deltas) {
        assert!(
            after.allocated_bytes - before.allocated_bytes >= LEAKED as u64,
            "{ctx}: the leak is not folded"
        );
        assert_eq!(
            after.live_bytes - before.live_bytes,
            LEAKED as i64,
            "{ctx}: live bytes"
        );
        assert_eq!(
            (after.allocated_blocks - after.freed_blocks)
                - (before.allocated_blocks - before.freed_blocks),
            1,
            "{ctx}: live blocks"
        );
    }
}
