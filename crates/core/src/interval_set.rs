//! The interval set behind the loss detector and the harness's delivery
//! index, re-exported from [`rrmp_membership::index`], where region views
//! use it too.

pub use rrmp_membership::index::IntervalSet;
