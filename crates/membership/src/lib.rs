//! # rrmp-membership
//!
//! Group membership substrate for the RRMP reliable-multicast
//! reproduction: region views, the error-recovery hierarchy, and the
//! gossip-style heartbeat failure detector the paper assumes
//! (van Renesse et al., Middleware '98).
//!
//! RRMP's system model gives each receiver membership knowledge of its own
//! region and its parent region ([`view::HierarchyView`]); this crate
//! provides those views (static, from a topology; or maintained live by the
//! [`gossip`] detector under churn). [`index`] holds the workspace's one
//! interval set, which region views and `rrmp-core`'s per-source sequence
//! records share.
//!
//! ```
//! use rrmp_membership::view::HierarchyView;
//! use rrmp_netsim::topology::{presets, NodeId};
//! use rrmp_netsim::time::SimDuration;
//!
//! let topo = presets::figure1_chain([3, 3, 3], SimDuration::from_millis(25));
//! let view = HierarchyView::from_topology(&topo, NodeId(5));
//! assert_eq!(view.own().len(), 3);
//! assert!(view.parent().is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gossip;
pub mod index;
pub mod node;
pub mod view;

pub use gossip::{Digest, GossipConfig, GossipState, ViewEvent};
pub use view::{HierarchyView, RegionView};
