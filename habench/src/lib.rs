//! Benchmark of the hybrid-HA stream-processing simulator.
//!
//! Two binaries share this library. `habench` times a workload end to end
//! under the default allocator; `habench-traced` steps the same workload
//! one event at a time under the counting allocator and attributes wall
//! time and allocations to layers. Both run one workload per process,
//! single-threaded, and check the program's outputs after the run drains.

pub mod cli;
pub mod layers;
pub mod report;
pub mod stats;
pub mod workload;
