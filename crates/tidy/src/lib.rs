//! # dqos-tidy
//!
//! A hand-rolled, zero-dependency static analysis pass for the
//! `deadline-qos` workspace, in the spirit of rustc's `tidy`. The
//! simulator's headline guarantee — reports that are a pure function of
//! the config, for every seed, architecture and fault plan — is exactly
//! the property that dies quietly from a stray `HashMap` iteration, a
//! wall-clock read, or an under-ordered atomic. These rules
//! machine-check the contracts that guarantee rests on; reviewer
//! vigilance does not scale.
//!
//! Three rule groups (full catalog in [`rules::RULES`] and DESIGN.md §8):
//!
//! * **determinism** — no host clocks, no ambient environment, no
//!   unordered-container iteration, no float equality in simulation
//!   library code;
//! * **concurrency hygiene** — relaxed atomic orderings need written
//!   justification, multi-lock files declare and respect a lock order,
//!   `unsafe` is forbidden;
//! * **robustness** — library code returns structured errors instead
//!   of panicking, and never prints to the terminal (exporters and
//!   reports go through writers or returned strings).
//!
//! Violations that are deliberate carry inline justification
//! directives (`// tidy: allow(<rule>) -- <reason>`); a directive that
//! suppresses nothing is itself an error, so allowances cannot rot.
//!
//! There is no `syn`, no `proc-macro2`, no regex crate: [`lexer`] is a
//! ~300-line comment/string-aware tokenizer, which is all these rules
//! need and keeps the workspace dependency-free (DESIGN.md
//! "Dependency policy").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod runner;

pub use rules::{check_source, FileClass, Finding, RuleInfo, RULES};
pub use runner::{check_workspace, classify, workspace_files};
