//! An empty package, kept only so that the benchmark builds.
//!
//! Campaigns ran once through a content-addressed result store that
//! lived here. They now run through `incdes_explore::run_campaign`
//! alone, and the store is gone. The benchmark's own manifest,
//! `perfbench/Cargo.toml`, still names this package as a path
//! dependency, and that manifest changes only with the benchmark. This
//! directory goes when that line does. No workspace crate depends on
//! this package.
