//! Allocation budgets for the transaction path.
//!
//! Each test runs 1 000 calls of one benchmark transition on a plain
//! `InMemoryState`, the shape of the benchmark's bare-interpreter probe, and
//! counts heap allocations per call: FungibleToken `Transfer` over 2 000
//! funded holders, NonfungibleToken `Mint` of fresh tokens and ProofIPFS
//! `Register` of fresh 62-byte hashes. Addresses are inline, messages and
//! closure literals are shared, library calls run compiled in the caller's
//! frame, and map keys and builtin arguments are borrowed or gathered into a
//! reused buffer, so what is left is mostly the values a call creates (an
//! `Option` per map read, the messages, the map entries it inserts). Each
//! budget is about 1.5× the measured count: room for small changes, not for
//! a return to an environment node per library-call argument or a key
//! vector per map access.
//!
//! A last test counts the allocations of draining a working state into the
//! chain's delta (`ContractDelta::from_state`), which must not grow with the
//! number of written components.
//!
//! To see where a call allocates, run the ignored test, which prints the
//! interpreter frames of every allocation one call of each transition makes:
//!
//! ```text
//! cargo test -p scilla --test alloc_budget -- --ignored --nocapture
//! ```

use chain::delta::ContractDelta;
use cosplit_analysis::signature::Join;
use scilla::gas::GasMeter;
use scilla::interpreter::{CompiledContract, TransitionContext};
use scilla::state::{CowState, InMemoryState, StateStore};
use scilla::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

const HOLDERS: u32 = 2_000;
const CALLS: u32 = 1_000;

/// The system allocator, counting allocations made on a thread that turned
/// counting on (test harness threads run alongside and are not counted),
/// and on request capturing where each was made.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Capture a backtrace per counted allocation into `SITES`.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    /// Set while a capture runs, so its own allocations are not captured.
    static IN_CAPTURE: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if !counting || IN_CAPTURE.try_with(Cell::get).unwrap_or(true) {
        return;
    }
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    if CAPTURING.try_with(Cell::get).unwrap_or(false) {
        IN_CAPTURE.with(|c| c.set(true));
        let site = interpreter_frames(&Backtrace::force_capture().to_string());
        SITES.with(|s| s.borrow_mut().push(site));
        IN_CAPTURE.with(|c| c.set(false));
    }
}

/// The innermost `scilla::` frames of a rendered backtrace, each with its
/// source line.
fn interpreter_frames(rendered: &str) -> String {
    let mut frames: Vec<(&str, &str)> = Vec::new();
    for line in rendered.lines().map(str::trim) {
        match line.strip_prefix("at ") {
            Some(at) => {
                if let Some((_, loc)) = frames.last_mut() {
                    *loc = at.rsplit_once("/crates/").map_or(at, |(_, rel)| rel);
                }
            }
            None => {
                if let Some((_, f)) = line.split_once(": ") {
                    frames.push((f, ""));
                }
            }
        }
    }
    let ours: Vec<String> = frames
        .into_iter()
        .filter(|(f, _)| f.starts_with("scilla::") || f.starts_with("<scilla::"))
        .take(3)
        .map(|(f, loc)| format!("{f} ({loc})"))
        .collect();
    if ours.is_empty() {
        "(outside scilla)".to_string()
    } else {
        ours.join("\n      <- ")
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// const-initialised thread-locals, which never allocate, and a capture's
// own allocations re-enter here with `IN_CAPTURE` set and are passed
// straight through.
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

const OWNER: [u8; 20] = [0xaa; 20];

/// A transition's arguments.
type Args = Vec<(String, Value)>;

/// A deployed contract and the calls of one transition to count, each
/// with its sender and its arguments, built before counting starts as a
/// transaction arrives with them.
struct Load {
    contract: CompiledContract,
    params: Args,
    store: InMemoryState,
    transition: &'static str,
    calls: Vec<([u8; 20], Args)>,
}

impl Load {
    fn deploy(name: &str, params: Args, transition: &'static str) -> Load {
        let source = scilla::corpus::get(name).expect("in corpus").source;
        let contract = scilla::compile_str(source).expect("corpus contract compiles");
        contract.precompile();
        let store =
            InMemoryState::from_fields(contract.init_fields(&params).expect("fields initialise"));
        Load { contract, params, store, transition, calls: Vec::new() }
    }

    fn call(&mut self, sender: [u8; 20], transition: &str, args: &[(String, Value)]) {
        let ctx = TransitionContext { sender, origin: sender, ..TransitionContext::zeroed() };
        self.contract
            .execute(
                &mut self.store,
                transition,
                args,
                &self.params,
                &ctx,
                &mut GasMeter::new(1_000_000),
            )
            .unwrap_or_else(|e| panic!("{transition} failed: {e}"));
    }

    /// Runs the first `n` prepared calls.
    fn run(&mut self, n: usize) {
        let calls = std::mem::take(&mut self.calls);
        for (sender, args) in calls.iter().take(n) {
            self.call(*sender, self.transition, args);
        }
        self.calls = calls;
    }
}

/// FungibleToken `Transfer` between 2 000 funded holders.
fn ft_transfer() -> Load {
    let params = vec![
        ("contract_owner".to_string(), Value::address(OWNER)),
        ("name".to_string(), Value::Str("Gold".into())),
        ("symbol".to_string(), Value::Str("GLD".into())),
        ("init_supply".to_string(), Value::Uint(128, 0)),
    ];
    let mut load = Load::deploy("FungibleToken", params, "Transfer");
    for i in 0..HOLDERS {
        let args = [
            ("to".to_string(), Value::address(holder(i))),
            ("amount".to_string(), Value::Uint(128, 1_000_000)),
        ];
        load.call(OWNER, "Mint", &args);
    }
    load.calls = (0..CALLS)
        .map(|i| {
            let args = vec![
                ("to".to_string(), Value::address(holder((i * 7 + 1) % HOLDERS))),
                ("amount".to_string(), Value::Uint(128, 1)),
            ];
            (holder(i % HOLDERS), args)
        })
        .collect();
    load
}

/// NonfungibleToken `Mint` of a fresh token to one of 2 000 holders.
fn nft_mint() -> Load {
    let params = vec![
        ("contract_owner".to_string(), Value::address(OWNER)),
        ("name".to_string(), Value::Str("Art".into())),
        ("symbol".to_string(), Value::Str("ART".into())),
    ];
    let mut load = Load::deploy("NonfungibleToken", params, "Mint");
    load.calls = (0..CALLS)
        .map(|i| {
            let args = vec![
                ("to".to_string(), Value::address(holder(i * 7 % HOLDERS))),
                ("token_id".to_string(), Value::Uint(256, u128::from(i))),
            ];
            (OWNER, args)
        })
        .collect();
    load
}

/// ProofIPFS `Register` of a fresh 62-byte hash by one of 2 000 holders.
fn ipfs_register() -> Load {
    let params = vec![("initial_admin".to_string(), Value::address(OWNER))];
    let mut load = Load::deploy("ProofIPFS", params, "Register");
    load.calls = (0..CALLS)
        .map(|i| {
            let args = vec![("ipfs_hash".to_string(), Value::Str(format!("Qm{i:060}")))];
            (holder(i * 7 % HOLDERS), args)
        })
        .collect();
    load
}

/// Checks `load`'s calls against `budget` allocations per call.
fn within_budget(mut load: Load, budget: u64) {
    let allocations = count_allocations(|| load.run(CALLS as usize));
    let per_call = allocations / u64::from(CALLS);
    println!("{}: {per_call} allocations per call ({allocations} in {CALLS})", load.transition);
    assert!(
        per_call <= budget,
        "{} made {per_call} allocations per call, budget {budget}",
        load.transition
    );
}

// Measured per call: Transfer 16, Mint 6, Register 14. While library calls
// ran on the walker and every map access gathered its keys into a new
// vector they were 37, 15 and 26.

#[test]
fn transfer_stays_within_its_allocation_budget() {
    within_budget(ft_transfer(), 24);
}

#[test]
fn mint_stays_within_its_allocation_budget() {
    within_budget(nft_mint(), 9);
}

#[test]
fn register_stays_within_its_allocation_budget() {
    within_budget(ipfs_register(), 21);
}

/// Draining a working state of `n` written components per field into the
/// chain's delta moves the overlay's trees: its allocations do not depend on
/// `n`, in an `IntMerge` map (numeric deltas against the base), an `IntMerge`
/// scalar, a map of overwrites and a two-level map of overwrites. It measured
/// 0 at every `n`; when the drain rebuilt every map it made 264, 2 401 and
/// 23 686 for `n` = 100, 1 000 and 10 000.
#[test]
fn draining_the_working_state_allocates_nothing_per_write() {
    let joins = BTreeMap::from([
        ("balances".to_string(), Join::IntMerge),
        ("total_supply".to_string(), Join::IntMerge),
    ]);
    let counts: Vec<(u32, u64)> = [100, 1_000, 10_000]
        .into_iter()
        .map(|n| {
            let mut base = InMemoryState::new();
            base.set("total_supply".into(), &[], Some(Value::Uint(128, 1 << 40)));
            for i in 0..n {
                base.set(
                    "balances".into(),
                    &[Value::address(holder(i))],
                    Some(Value::Uint(128, 1_000)),
                );
            }
            let mut cow = CowState::new(Arc::new(base));
            for i in 0..n {
                let (who, to) = (Value::address(holder(i)), Value::address(holder(i + n)));
                cow.set("balances".into(), std::slice::from_ref(&who), Some(Value::Uint(128, 999)));
                cow.set("balances".into(), std::slice::from_ref(&to), Some(Value::Uint(128, 1)));
                cow.set("owners".into(), &[Value::Uint(256, u128::from(i))], Some(who.clone()));
                cow.set("allowances".into(), &[who, to], Some(Value::Uint(128, 5)));
                cow.set(
                    "total_supply".into(),
                    &[],
                    Some(Value::Uint(128, (1 << 40) + u128::from(i))),
                );
                cow.commit();
            }
            let mut delta = None;
            let allocations =
                count_allocations(|| delta = Some(ContractDelta::from_state(cow, Some(&joins))));
            assert!(delta.is_some_and(|d| !d.is_empty()));
            (n, allocations)
        })
        .collect();
    println!("drain allocations by components written per field: {counts:?}");
    assert!(
        counts.iter().all(|&(_, a)| a == counts[0].1),
        "the drain allocates per write: {counts:?}"
    );
}

/// Prints the interpreter frames of every allocation that one call of each
/// budgeted transition makes (after one warm-up call, which fills the
/// per-thread buffers). A diagnostic, not a check: run it by name with
/// `--ignored --nocapture`.
#[test]
#[ignore]
fn print_allocation_sites() {
    for mut load in [ft_transfer(), nft_mint(), ipfs_register()] {
        load.run(1);
        load.calls.remove(0);
        CAPTURING.with(|c| c.set(true));
        let n = count_allocations(|| load.run(1));
        CAPTURING.with(|c| c.set(false));
        let sites = SITES.with(|s| std::mem::take(&mut *s.borrow_mut()));
        println!("{}: {n} allocations", load.transition);
        for (i, site) in sites.iter().enumerate() {
            println!("  #{i} {site}");
        }
    }
}
