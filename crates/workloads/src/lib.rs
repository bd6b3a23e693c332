//! Benchmark workloads for the SmartFlux reproduction.
//!
//! Three realistic continuous-processing applications, each exposing a
//! [`WorkloadFactory`] so the evaluation harness can run identical seeded
//! twins:
//!
//! - [`lrb`] — a variable tolling system for an urban expressway structure
//!   based on the Linear Road Benchmark (Fig. 5 of the paper). The paper
//!   feeds it MIT-SIMLab traces; we substitute a deterministic seeded
//!   micro-simulator producing the same statistical regimes (smoothly
//!   drifting congestion, occasional accidents, historical queries).
//! - [`aqhi`] — an Air Quality Health Index monitor over a grid of
//!   O3/PM2.5/NO2 detectors (Fig. 6), with smooth spatio-temporal
//!   generating functions exactly as the paper describes.
//! - [`fire`] — the motivational fire-risk assessment workflow (Fig. 2)
//!   with the diurnal temperature/precipitation/wind curves of Fig. 3.
//! - [`pagerank`] — the web-crawl/PageRank application class of §2.3
//!   (link-difference histograms, word counts, top-k rankings).
//!
//! Each factory declares the workflow's bound on every managed step and
//! then splits it by one rule, [`budget::budget_upstream`].
//!
//! [`WorkloadFactory`]: smartflux::eval::WorkloadFactory

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aqhi;
pub mod budget;
pub mod fire;
pub mod gen;
pub mod lrb;
pub mod pagerank;
