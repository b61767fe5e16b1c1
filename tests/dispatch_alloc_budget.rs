//! An allocation budget for the lookup node's dispatch.
//!
//! Dispatch runs serially for every pool transaction, before any shard
//! starts. It instantiates the transition's constraints only to learn which
//! shards they pin, so it renders no lock key and builds no lock map: that
//! is the cross-shard lock plan's work (`xshard_plan`), for the transactions
//! that reach it. This counts heap allocations per `dispatch_policy` call
//! over three paper-profile loads, on 2 shards as the benchmark runs them.
//! What is left per call is the resolved key values (a vector, plus any
//! string or byte-string argument they clone). Building the lock map on
//! every call costs 12 (FtTransfer), 12 (NftMint) and 34 (IpfsRegister)
//! allocations per call; the budgets leave room for small changes but not
//! for a return to that.

use cosplit::chain::dispatch::dispatch_policy;
use cosplit::chain::network::ChainConfig;
use cosplit::workloads::runner::world_builder;
use cosplit::workloads::scenarios::{build, Kind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const USERS: u64 = 2_000;
const TXS: usize = 2_000;

/// The system allocator, counting allocations made on a thread that turned
/// counting on (test harness threads run alongside and are not counted).
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if counting {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// Allocations per `dispatch_policy` call over `kind`'s paper-profile load.
fn allocations_per_dispatch(kind: Kind) -> u64 {
    let config = ChainConfig::evaluation(2, true);
    let scenario = build(kind, USERS, TXS, 1);
    let net = world_builder(&scenario)(&config);
    // Warm-up: the per-reason counters register on first use.
    for tx in scenario.load.iter().take(16) {
        dispatch_policy(tx, net.state(), &config);
    }
    let allocations = count_allocations(|| {
        for tx in &scenario.load {
            std::hint::black_box(dispatch_policy(tx, net.state(), &config));
        }
    });
    let calls = scenario.load.len();
    let per_call = allocations / calls as u64;
    println!("{kind:?}: {per_call} allocations per dispatch ({allocations} in {calls})");
    per_call
}

#[test]
fn dispatch_stays_within_its_allocation_budget() {
    for (kind, budget) in [(Kind::FtTransfer, 4), (Kind::NftMint, 2), (Kind::IpfsRegister, 7)] {
        let per_call = allocations_per_dispatch(kind);
        assert!(
            per_call <= budget,
            "{kind:?} made {per_call} allocations per dispatch, budget {budget}"
        );
    }
}
