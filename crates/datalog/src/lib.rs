//! # rudoop-datalog
//!
//! A small, general-purpose, semi-naive Datalog engine with stratified
//! negation and **external constructor functions**, plus an executable
//! encoding of the PLDI'14 introspective points-to analysis model
//! (Figures 2–3 of the paper).
//!
//! The engine plays the role LogicBlox plays for Doop: the analysis is
//! *specified* as Datalog rules and the specification itself runs. The
//! optimized solver in `rudoop-core` is differential-tested against
//! [`model::run_model`].
//!
//! # Examples
//!
//! ```
//! use rudoop_datalog::{Engine, RuleBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = Engine::new();
//! let edge = engine.relation("edge", 2);
//! let path = engine.relation("path", 2);
//! engine.add_rule(
//!     RuleBuilder::new("base").head(path, &["x", "y"]).pos(edge, &["x", "y"]).build()?,
//! )?;
//! engine.add_rule(
//!     RuleBuilder::new("step")
//!         .head(path, &["x", "z"])
//!         .pos(edge, &["x", "y"])
//!         .pos(path, &["y", "z"])
//!         .build()?,
//! )?;
//! engine.fact(edge, &[1, 2]);
//! engine.fact(edge, &[2, 3]);
//! engine.run()?;
//! assert!(engine.contains(path, &[1, 3]));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod model;
pub mod races;
pub mod rule;
pub mod taint;

pub use engine::{Engine, RunStats};
pub use model::{
    run_model, run_model_with_cuts, run_model_with_rewrites, run_model_with_summaries, ModelResult,
};
pub use races::{run_race_model, run_race_model_with_rewrites, RaceModelResult};
pub use rule::{Atom, FuncApp, FuncId, Literal, RelId, Rule, RuleBuilder, RuleError, Term, Value};
pub use taint::{run_taint_model, run_taint_model_with_rewrites, TaintModelResult};
