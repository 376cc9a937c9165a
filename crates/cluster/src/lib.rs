//! Content-similarity substrate for the crowdsourced-CDN reproduction.
//!
//! RBCAer's content-aggregation stage (§IV-B of the paper) groups hotspots
//! whose users request similar videos, then steers load-balancing flows to
//! stay inside those groups so that one under-utilized hotspot can absorb
//! the load of several similar overloaded hotspots *without* caching many
//! extra videos. The grouping is **agglomerative hierarchical clustering**
//! (the paper cites Johnson 1967 \[18\]) over the content-aware distance
//!
//! ```text
//! Jd(i, j) = 1 − Jaccard(Vi, Vj)
//! ```
//!
//! where `Vi` is hotspot `i`'s Top-20 % content set, cut so that hotspots
//! in the same cluster are within distance 0.5 of each other.
//!
//! This crate provides [`jaccard`] over sorted id sets, a packed
//! [`DistanceMatrix`], [`hierarchical_cluster`] with selectable
//! [`Linkage`], and [`cluster_jaccard`], which clusters sets on `Jd`
//! directly. Both clusterers share one merge loop: each row caches its
//! nearest live neighbour, so a merge rescans only the rows it touched
//! instead of the whole matrix (`O(n²)` typical, `O(n³)` worst case), and
//! the partition is exactly that of a full rescan per merge.
//! [`cluster_jaccard`] counts set intersections from sorted postings
//! straight into its dense working matrix, so it builds no packed matrix
//! and walks no set pair.
//!
//! # Examples
//!
//! ```
//! use ccdn_cluster::{cluster_jaccard, hierarchical_cluster, jaccard, DistanceMatrix, Linkage};
//!
//! let sets: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![2, 3, 4], vec![100, 101, 102]];
//! let dm = DistanceMatrix::from_fn(3, |i, j| 1.0 - jaccard(&sets[i], &sets[j]));
//! let clusters = hierarchical_cluster(&dm, Linkage::Complete, 0.6);
//! // The two overlapping sets merge; the disjoint one stays alone.
//! assert_eq!(clusters.len(), 2);
//! // The same partition, straight from the sets.
//! assert_eq!(cluster_jaccard(&sets, Linkage::Complete, 0.6), clusters);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agglomerative;
mod jaccard;
mod matrix;

pub use agglomerative::{cluster_jaccard, hierarchical_cluster, Linkage};
pub use jaccard::{jaccard, jaccard_counts};
pub use matrix::DistanceMatrix;
