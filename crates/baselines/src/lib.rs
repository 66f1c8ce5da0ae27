//! # reach-baselines — the comparators
//!
//! Every mechanism the paper positions itself against, on the same
//! substrate and workloads:
//!
//! | baseline | where | models |
//! |---|---|---|
//! | no hiding | [`run_sequential`] | a plain in-order run; every stall exposed |
//! | manual yields | [`instrument_manual`] | CoroBase-style developer-placed `prefetch+yield` at pointer dereferences, full-register saves |
//! | prefetch only | [`instrument_prefetch_only`] | software prefetching without interleaving |
//! | SMT | [`reach_sim::run_smt`] | 2–8 hardware contexts, switch-on-stall, zero latency control |
//! | OS threads | [`reach_core::run_interleaved`] with [`reach_core::SwitchMode::Thread`] | 1 µs context switches |
//!
//! The mechanism under study — profile-guided coroutine instrumentation —
//! lives in [`reach_core`]; this crate only holds what it is compared to.

mod manual;
mod sequential;

pub use manual::{instrument_manual, instrument_prefetch_only};
pub use sequential::{run_sequential, SequentialReport};
