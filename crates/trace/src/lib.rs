//! # rrmp-trace
//!
//! The observability substrate for the RRMP reproduction: structured
//! trace events, bounded per-node ring sinks, fixed-bucket log-linear
//! latency histograms, and a minimal JSON writer/parser — all std-only,
//! with **no** dependencies (this crate sits below every other workspace
//! crate so any layer can emit into it).
//!
//! Design rules, enforced by the consumers' golden-trace tests:
//!
//! * **Unarmed is free.** Every hook in the simulator, the protocol
//!   core, and the UDP runtime is an `Option<...>` field; when `None`
//!   the hot path pays exactly one branch and the observable behaviour
//!   (fingerprints, RNG draws, counters) is bit-identical to a build
//!   without the hooks.
//! * **Armed is deterministic.** Events are attributed to the node that
//!   deterministically emits them and stamped with a per-`(node,
//!   stream)` emission counter; the canonical export order
//!   `(at_micros, node, stream, emit)` is therefore identical at every
//!   shard count, and bounded rings evict per node-stream so "keep the
//!   last N" is layout-invariant too.
//! * **Merge is associative.** Histograms are plain bucket-count
//!   vectors; merging is elementwise addition, so per-shard (or
//!   per-node) histograms combine to the same result in any grouping.

#![warn(missing_docs)]

pub mod event;
pub mod hist;
pub mod json;
pub mod sink;

pub use event::{BufferPhase, EventKind, TraceEvent};
pub use hist::LogHistogram;
pub use json::{JsonArr, JsonObj, Value};
pub use sink::{sort_canonical, streams, to_jsonl, TraceSink};
