//! Client-timed benchmark for the Memex server: seeded traffic mixes
//! served over loopback by `memex_net::NetServer`, answer checks, and a
//! traced in-process replay that attributes time to layers. See the
//! README for the workloads and metrics.

pub mod check;
pub mod json;
pub mod stats;
pub mod stream;
pub mod timed;
pub mod traced;
pub mod world;
