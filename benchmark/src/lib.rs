//! The repo benchmark: six digest-checked workloads, host-time and
//! simulated end-to-end metrics, and an outside-in layer trace. See
//! `README.md` beside this package for the method and the metric tables.

pub mod alloc;
pub mod compare;
pub mod kernels;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
