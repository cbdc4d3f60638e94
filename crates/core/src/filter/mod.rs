//! Incremental index filtering: the machinery that keeps DEBI consistent
//! with the stream (Section V).
//!
//! * [`requirements`] — per-query-vertex neighbourhood requirements (f2/f3),
//! * [`candidacy`] — cached per-data-vertex candidacy bitmasks,
//! * [`top_down`] — the pass that refreshes candidacy, DEBI rows and the
//!   roots bit vector of every standing query in one walk over the unified
//!   traversal frontier,
//! * [`bottom_up`] — the f4-style subtree-support check used to prune
//!   enumeration work units.

pub mod bottom_up;
pub mod candidacy;
pub mod requirements;
pub mod top_down;

pub use bottom_up::BottomUpPass;
pub use candidacy::VertexCandidacy;
pub use requirements::{QueryRequirements, VertexRequirements};
pub use top_down::{FilterTarget, SharedTopDownPass, TopDownPass};
