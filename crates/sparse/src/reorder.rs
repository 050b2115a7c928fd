//! Bandwidth-reducing matrix reordering and the level colouring.
//!
//! Implements the Reverse Cuthill–McKee algorithm the paper uses for its
//! reduced-bandwidth experiments (§V-D, Table III, Fig. 13), together with
//! the adjacency-graph and BFS machinery it needs, and the RACE-style level
//! colouring behind the `sss-race` schedule. The ordering is applied with
//! [`crate::perm`].

#[doc(inline)]
pub use crate::{bfs, color, graph, rcm};

pub use crate::color::{level_color, level_color_lower, LevelColoring};
pub use crate::graph::AdjGraph;
pub use crate::rcm::{rcm_order, rcm_permutation};
