//! CoSplit: ownership and commutativity analysis for Scilla contracts.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Practical Smart Contract Sharding with Ownership and Commutativity
//! Analysis*, PLDI 2021): a compositional static analysis that infers, for
//! each contract transition,
//!
//! 1. a **state footprint** — which components of the replicated contract
//!    state the transition reads and writes ([`effects`]), and
//! 2. **contribution types** — how the initial values of those components
//!    flow into the final ones ([`domain`]),
//!
//! and from those derives a **sharding signature** ([`signature`]): runtime
//! ownership constraints per transition plus a join operation per field,
//! which a sharded blockchain uses to execute transactions over the *same*
//! contract in parallel across shards.
//!
//! # Examples
//!
//! Analysing an ERC20-style `Transfer` (paper Fig. 5/8):
//!
//! ```
//! use cosplit_analysis::signature::{Join, WeakReads};
//! use cosplit_analysis::solver::AnalyzedContract;
//!
//! let src = r#"
//!   contract Token ()
//!   field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
//!   transition Transfer (to : ByStr20, amount : Uint128)
//!     bal_opt <- balances[_sender];
//!     match bal_opt with
//!     | Some bal =>
//!       ok = builtin le amount bal;
//!       match ok with
//!       | True =>
//!         nf = builtin sub bal amount;
//!         balances[_sender] := nf;
//!         to_opt <- balances[to];
//!         nt = match to_opt with
//!           | Some b => builtin add b amount
//!           | None => amount
//!           end;
//!         balances[to] := nt
//!       | False => throw
//!       end
//!     | None => throw
//!     end
//!   end
//! "#;
//! let checked = scilla::typechecker::typecheck(scilla::parser::parse_module(src).unwrap()).unwrap();
//! let analyzed = AnalyzedContract::analyze(&checked);
//! let sig = analyzed.query(&["Transfer".into()], &WeakReads::AcceptAll);
//! // Concurrent transfers merge by summing balance deltas:
//! assert_eq!(sig.joins["balances"], Join::IntMerge);
//! ```

pub mod analysis;
pub mod audit;
pub mod blame;
pub mod callgraph;
pub mod domain;
pub mod effects;
pub mod ge;
pub mod repair;
pub mod signature;
pub mod solver;
