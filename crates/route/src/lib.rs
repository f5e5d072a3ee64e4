//! Monotonic two-layer BGA package routing, density and wirelength analysis.
//!
//! This crate re-implements the routing substrate the paper builds on: the
//! iterative-improvement global router of Kubo–Takahashi (*"Global routing
//! by iterative improvements for two-layer ball grid array packages"*, IEEE
//! TCAD 2006, the paper's reference \[10\]), specialised to the rules the
//! finger/pad planning paper adopts:
//!
//! * each net uses **at most one via**, fixed at the bottom-left corner of
//!   its bump ball;
//! * routing is **monotonic**: a net's Layer-1 wire crosses every horizontal
//!   grid line between its finger and its via exactly once (no detours);
//! * an assignment is **legal** iff, for every ball row, the left-to-right
//!   ball order equals the left-to-right finger order of that row's nets.
//!
//! # Density model
//!
//! All Layer-1 wires share one layer, so they are planar: the left-to-right
//! order in which wires cross *any* horizontal line equals the finger order
//! restricted to the nets crossing it. A wire crossing a line is therefore
//! forced into the gap between the two **terminating vias** that bracket it
//! in finger order; inside that span the unoccupied via sites subdivide the
//! line into *segments*, and the wire takes the segment nearest its straight
//! flyline. Density of a segment is the number of wires in it; the paper's
//! "maximum density" is the maximum over all segments of all lines. See
//! `DESIGN.md` for the derivation and the validation against the paper's
//! Fig. 5 (random order → max density 4, DFA order → 2).
//!
//! # Example
//!
//! ```
//! use copack_geom::{Assignment, Quadrant};
//! use copack_route::{analyze, DensityModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Paper Fig. 5: three ball rows, twelve nets, drawn with fingers
//! // spanning the same width as the ball grid.
//! let geometry = copack_geom::QuadrantGeometry {
//!     ball_pitch: 1.0,
//!     finger_pitch: 0.5,
//!     finger_width: 0.3,
//!     finger_height: 0.4,
//!     via_diameter: 0.1,
//!     ball_diameter: 0.2,
//! };
//! let q = Quadrant::builder()
//!     .row([10u32, 2, 4, 7, 0])
//!     .row([1u32, 3, 5, 8])
//!     .row([11u32, 6, 9])
//!     .geometry(geometry)
//!     .build()?;
//!
//! // The paper's Fig. 5(B) finger order, produced by DFA.
//! let dfa = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
//! let report = analyze(&q, &dfa, DensityModel::Geometric)?;
//! assert_eq!(report.max_density, 2); // exactly the paper's number
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balance;
mod capacity;
mod crossing;
mod cutline;
mod density;
mod error;
mod estimator;
mod monotonic;
mod path;
mod range_cache;
#[cfg(test)]
mod reference;
mod report;
mod via_assign;
mod wirelength;

pub use balance::{balance_line, balanced_density_map, balanced_paths};
pub use capacity::{check_capacity, CapacityViolation};
pub use crossing::{line_crossings, Crossing, LineCrossings};
pub use cutline::{cutline_congestion, CutlineReport, FlankLoad};
pub use density::{density_map, density_map_with_plan, DensityMap, DensityModel, RowDensity};
pub use error::RouteError;
pub use estimator::{estimate_congestion, CongestionEstimate};
pub use monotonic::{check_monotonic, exchange_range, is_monotonic};
pub use path::{extract_paths, NetPath};
pub use range_cache::RangeCache;
pub use report::{analyze, analyze_with_map, RoutingReport};
pub use via_assign::{via_plan, via_plan_with, ViaPlan, ViaRef, ViaRule};
pub use wirelength::{net_wirelength, total_wirelength};
