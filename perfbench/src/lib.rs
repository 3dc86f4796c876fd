//! End-to-end and per-layer benchmark of the RLC index workspace.
//!
//! `rlc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see [`workload`]) and prints its metrics; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

pub mod client;
pub mod reference;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
