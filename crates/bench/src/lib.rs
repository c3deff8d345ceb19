//! # bench
//!
//! The `paper` binary, which regenerates every table and figure of the
//! BlockHammer paper's evaluation.
//!
//! `src/bin/paper.rs`, run with `cargo run --release -p bench --bin paper
//! -- [quick|standard] [ARTIFACT...]`, is one entry point for every table
//! and figure, printing the same rows or series the paper reports. The
//! artifacts are `tab1 tab3 tab4 sec321 fig4 fig5 fig6 tab7 tab8 sec84`;
//! naming none runs all of them in paper order, and the tier defaults to
//! `standard`. `golden/paper-quick.txt` holds the full `paper quick`
//! output, which CI compares byte for byte.
//!
//! Simulator speed is measured end to end by the `perfbench` package
//! (`BENCHMARK.json`), not here.
//!
//! The README's "Paper-to-module map" lists the module behind each
//! artifact, and its "Substitutions and scaled time" section what the
//! reproduction substitutes for the paper's infrastructure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
