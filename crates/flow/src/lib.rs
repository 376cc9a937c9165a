//! Flow-network substrate for the crowdsourced-CDN reproduction.
//!
//! RBCAer (§IV of the paper) casts request balancing as a
//! **minimum-cost maximum-flow** (MCMF) problem: overloaded hotspots feed a
//! source, under-utilized hotspots drain into a sink, inter-hotspot arcs
//! carry latency costs, and the optimal flow tells each overloaded hotspot
//! how many requests to push where. This crate implements that substrate
//! from scratch:
//!
//! - [`FlowNetwork`]: a residual-graph representation with paired forward /
//!   reverse arcs, integer capacities, and `f64` costs;
//! - [`FlowNetwork::max_flow_dinic`]: Dinic's algorithm, used to compute
//!   the achievable `maxflow` bound of Algorithm 1 and as an independent
//!   oracle in tests;
//! - [`FlowNetwork::min_cost_max_flow`]: successive shortest paths with
//!   Dijkstra + Johnson potentials over a binary heap
//!   ([`McmfAlgorithm::SspDijkstra`], the default), or Klein's cycle
//!   canceling ([`McmfAlgorithm::CycleCanceling`]), kept as an independent
//!   oracle for the tests. Both compute identical optima.
//!
//! # Examples
//!
//! ```
//! use ccdn_flow::{FlowNetwork, McmfAlgorithm};
//!
//! // Two parallel s→t routes: cheap capacity 1, expensive capacity 1.
//! let mut net = FlowNetwork::with_nodes(2);
//! let s = 0;
//! let t = 1;
//! let cheap = net.add_edge(s, t, 1, 1.0)?;
//! let pricey = net.add_edge(s, t, 1, 5.0)?;
//!
//! let result = net.min_cost_max_flow(s, t, McmfAlgorithm::SspDijkstra)?;
//! assert_eq!(result.flow, 2);
//! assert_eq!(result.cost, 6.0);
//! assert_eq!(net.edge_flow(cheap), 1);
//! assert_eq!(net.edge_flow(pricey), 1);
//! # Ok::<(), ccdn_flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dinic;
mod mcmf;
mod network;
pub mod validate;

pub use mcmf::{McmfAlgorithm, McmfResult};
pub use network::{EdgeId, EdgeView, FlowError, FlowNetwork};
