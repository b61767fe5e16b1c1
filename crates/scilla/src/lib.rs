//! A Scilla-subset smart-contract language toolchain.
//!
//! This crate implements the substrate language of the CoSplit paper
//! (*Practical Smart Contract Sharding with Ownership and Commutativity
//! Analysis*, PLDI 2021): a minimalistic, memory- and type-safe, ML-style
//! functional language for account-based smart contracts (paper §3.1).
//!
//! The pipeline is the same one Zilliqa miners run on deployment:
//!
//! 1. [`lexer`] + [`parser`] turn source text into a [`ast::ContractModule`];
//! 2. [`typechecker`] validates it, producing a
//!    [`typechecker::CheckedModule`];
//! 3. [`interpreter`] executes transitions against a [`state::StateStore`]
//!    (reads and writes one component, a field plus a key path, at a time),
//!    metered by [`gas`].
//!
//! The [`corpus`] module ships the 49-contract benchmark corpus used
//! throughout the paper's evaluation, plus the five contracts of §5.2.
//!
//! # Examples
//!
//! ```
//! use scilla::{compile_str, interpreter::TransitionContext, gas::GasMeter};
//! use scilla::state::{InMemoryState, StateStore};
//! use scilla::value::Value;
//!
//! let contract = compile_str(
//!     r#"
//!     contract Counter ()
//!     field count : Uint128 = Uint128 0
//!     transition Incr ()
//!       one = Uint128 1;
//!       c <- count;
//!       c2 = builtin add c one;
//!       count := c2
//!     end
//!     "#,
//! )?;
//! let mut state = InMemoryState::from_fields(contract.init_fields(&[])?);
//! let mut gas = GasMeter::new(10_000);
//! contract.execute(&mut state, "Incr", &[], &[], &TransitionContext::zeroed(), &mut gas)?;
//! assert_eq!(state.get("count".into(), &[]), Some(Value::Uint(128, 1)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod adt;
pub mod ast;
pub mod builtins;
pub mod compile;
pub mod corpus;
pub mod error;
pub mod gas;
pub mod intern;
pub mod interpreter;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod span;
pub mod state;
pub mod trace;
pub mod typechecker;
pub mod types;
pub mod value;
pub mod wire;

use interpreter::CompiledContract;

/// Runs the full pipeline — parse, type-check, compile — on contract source.
///
/// # Errors
///
/// Returns the first lexing/parsing/typing/compilation error, boxed.
pub fn compile_str(src: &str) -> Result<CompiledContract, Box<dyn std::error::Error>> {
    let module = parser::parse_module(src)?;
    let checked = typechecker::typecheck(module)?;
    Ok(CompiledContract::compile(checked)?)
}
