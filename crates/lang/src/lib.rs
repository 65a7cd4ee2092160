//! λ_syn — the core object-oriented calculus of the RbSyn paper (Fig. 3).
//!
//! This crate defines the *syntax* layer shared by every other crate:
//!
//! * [`Symbol`] — interned identifiers (method names, variables, regions);
//! * [`Value`] — runtime values (`nil`, booleans, integers, strings,
//!   symbols, hashes, arrays, class objects, heap references);
//! * [`Ty`] — the type syntax `τ ::= A | τ ∪ τ | …` extended, as in the
//!   implementation (§4), with finite hash types, singleton class types and
//!   symbol-literal types;
//! * [`Effect`] / [`EffectSet`] — the effect syntax
//!   `ε ::= • | * | A.* | A.r | ε ∪ ε` plus the implementation's `self`
//!   region (§4);
//! * [`Expr`] — expressions, including the two kinds of synthesis holes:
//!   typed holes `□:τ` ([`Expr::Hole`]) and effect holes `◇:ε`
//!   ([`Expr::EffHole`]);
//! * [`Program`] — a single method definition `def m(x…) = e`;
//! * size and path metrics used by the search heuristics and by Table 1.
//!
//! Semantic *operations* on these (subtyping, effect subsumption, class
//! tables, evaluation) live in the `rbsyn-ty` and `rbsyn-interp` crates.
//!
//! # Example
//!
//! ```
//! use rbsyn_lang::builder::*;
//! use rbsyn_lang::Program;
//!
//! // def m(x) = if x then 1 else 0
//! let body = if_(var("x"), int(1), int(0));
//! let p = Program::new("m", ["x"], body);
//! assert_eq!(
//!     p.to_string(),
//!     "def m(x)\n  if x\n    1\n  else\n    0\n  end\nend"
//! );
//! ```

#![deny(missing_docs)]

pub mod ast;
pub mod builder;
pub mod contention;
pub mod effects;
pub mod failpoint;
pub mod intern;
pub mod metrics;
pub mod obs;
pub mod persist;
pub mod types;
pub mod value;

pub use ast::{Expr, Program};
pub use effects::{Effect, EffectPair, EffectSet};
pub use intern::{hash128, FxBuild, FxHasher, Symbol, SymbolTable};
pub use obs::{unordered_obs_fold, ObsHasher};
pub use types::{FiniteHash, HashField, Ty};
pub use value::{ClassId, ObjRef, Value};
