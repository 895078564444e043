//! The physical operators: one file per pipeline stage. Scan feeds
//! Filter/Join, Project and Aggregate shape the output, the fused kernel
//! collapses the scan→filter→aggregate chain, and tail holds the
//! always-breaker stages (Distinct, Sort, Limit).

mod aggregate;
#[cfg(test)]
mod clustered_model;
mod filter;
mod fused;
mod join;
mod project;
mod scan;
mod tail;

pub(crate) use aggregate::*;
pub(crate) use filter::*;
pub(crate) use fused::*;
pub(crate) use join::*;
pub(crate) use project::*;
pub(crate) use scan::*;
pub(crate) use tail::*;
