//! Carrier package for the workspace's cross-crate integration tests,
//! which live in `/tests` at the repository root (see the `[[test]]`
//! entries in this crate's `Cargo.toml`). The library itself is empty.

#![forbid(unsafe_code)]
