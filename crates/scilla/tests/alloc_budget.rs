//! An allocation budget for the transaction path.
//!
//! Runs 1 000 FungibleToken `Transfer` calls on a plain `InMemoryState` with
//! 2 000 funded holders, the shape of the benchmark's bare-interpreter probe,
//! and counts heap allocations per call. A call needs about 40: addresses
//! are inline, and messages and closure literals are shared, so the message
//! path (two messages, the curried `two_msg` library call, `send`) copies
//! pointers. Heap addresses, deep-copied messages and deep-copied closure
//! bodies together cost 130 per call; the budget leaves room for small
//! changes but not for a return to that.

use scilla::gas::GasMeter;
use scilla::interpreter::{CompiledContract, TransitionContext};
use scilla::state::InMemoryState;
use scilla::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per `Transfer` the test tolerates.
const BUDGET: u64 = 60;
const HOLDERS: u32 = 2_000;
const CALLS: u32 = 1_000;

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

fn holder(i: u32) -> [u8; 20] {
    let mut a = [0u8; 20];
    a[..4].copy_from_slice(&i.to_be_bytes());
    a[19] = 1;
    a
}

fn call(
    c: &CompiledContract,
    store: &mut InMemoryState,
    params: &[(String, Value)],
    sender: [u8; 20],
    transition: &str,
    args: &[(String, Value)],
) {
    let ctx = TransitionContext { sender, origin: sender, ..TransitionContext::zeroed() };
    c.execute(store, transition, args, params, &ctx, &mut GasMeter::new(1_000_000))
        .unwrap_or_else(|e| panic!("{transition} failed: {e}"));
}

#[test]
fn transfer_stays_within_its_allocation_budget() {
    let source = scilla::corpus::get("FungibleToken").expect("in corpus").source;
    let c = scilla::compile_str(source).expect("FungibleToken compiles");
    c.precompile();
    let owner = [0xaa; 20];
    let params = vec![
        ("contract_owner".to_string(), Value::address(owner)),
        ("name".to_string(), Value::Str("Gold".into())),
        ("symbol".to_string(), Value::Str("GLD".into())),
        ("init_supply".to_string(), Value::Uint(128, 0)),
    ];
    let mut store = InMemoryState::from_fields(c.init_fields(&params).expect("fields initialise"));
    for i in 0..HOLDERS {
        let args = [
            ("to".to_string(), Value::address(holder(i))),
            ("amount".to_string(), Value::Uint(128, 1_000_000)),
        ];
        call(&c, &mut store, &params, owner, "Mint", &args);
    }
    // Arguments are built outside the counted region, as a transaction
    // arrives with them.
    let transfers: Vec<_> = (0..CALLS)
        .map(|i| {
            let args = vec![
                ("to".to_string(), Value::address(holder((i * 7 + 1) % HOLDERS))),
                ("amount".to_string(), Value::Uint(128, 1)),
            ];
            (holder(i % HOLDERS), args)
        })
        .collect();
    let allocations = count_allocations(|| {
        for (sender, args) in &transfers {
            call(&c, &mut store, &params, *sender, "Transfer", args);
        }
    });
    let per_call = allocations / u64::from(CALLS);
    println!("FungibleToken Transfer: {per_call} allocations per call ({allocations} in {CALLS})");
    assert!(
        per_call <= BUDGET,
        "Transfer made {per_call} allocations per call, budget {BUDGET}"
    );
}
