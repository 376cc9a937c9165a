//! Workspace automation for the crowdsourced-CDN reproduction.
//!
//! Two tools share this crate:
//!
//! - **ccdn-lint** ([`lint`]) — token-level rules that clippy cannot
//!   express (no panics in library code, no hash-ordered iteration in
//!   planning code, no float `==`, ...), with justified waivers.
//! - **ccdn-analyze** ([`analyze`]) — call-graph semantic passes over
//!   the whole workspace: nondeterminism taint into the seeded planning
//!   entry points, panic reachability with full call chains, unused
//!   waiver detection, and `pub` API error-type discipline, all gated
//!   by the committed `lint-baseline.json` ratchet.
//!
//! Both are dependency-free (std plus the workspace's own `ccdn-obs`
//! JSON writer) and deterministic: two runs over the same tree produce
//! byte-identical output.

pub mod analyze;
pub mod bounds;
pub mod graph;
pub mod hotpaths;
pub mod index;
pub mod interval;
pub mod lint;
pub mod source;
