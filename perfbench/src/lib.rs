//! Campaign-level benchmark of the PFTK reproduction.
//!
//! Four closed-loop workloads (`table2_journaled`, `trace_import`,
//! `fleet_100k`, `table2_resume`) measured end to end in one unit, the
//! data packet sent, plus a traced run that times each layer's public
//! entry points from here. See `README.md` in this directory.

pub mod json;
pub mod layers;
pub mod machine;
pub mod span;
pub mod stats;
pub mod workloads;

/// End-to-end metrics and their units, in report order. Failed work is
/// not a metric: it is the result's `failed` count over `attempted`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("wall_tail_s", "s"),
    ("pkts_per_s", "pkt/s"),
    ("setup_s", "s"),
];
