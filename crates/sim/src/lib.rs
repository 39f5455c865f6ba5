//! # gecko-sim
//!
//! Full-system co-simulation of an intermittent device under EMI attack:
//! the MCU interpreter, capacitor and harvester, voltage monitor with
//! EMI-induced disturbance, and one of four recovery schemes —
//!
//! * **NVP** — the commodity JIT-checkpointing baseline (TI CTPL model);
//! * **Ratchet** — compiler-formed idempotent regions with centralized
//!   runtime checkpointing at every boundary;
//! * **GECKO** — the paper's contribution: JIT checkpointing while safe,
//!   reactive attack detection (ACK + region-repeat), rollback recovery
//!   over pruned checkpoints and recovery blocks while under attack;
//! * **GECKO w/o pruning** — the Figure 11 ablation.
//!
//! The simulation is instruction-stepped: each instruction consumes cycles
//! and capacitor energy; harvested power integrates continuously; the
//! voltage monitor is sampled on its own period with the attack disturbance
//! superimposed; power failure wipes exactly the volatile state.
//!
//! [`experiments`] contains one entry point per table/figure of the paper's
//! evaluation; `gecko-bench` wraps them into runnable bench targets.
//!
//! ```
//! use gecko_sim::{SchemeKind, SimConfig, Simulator};
//!
//! let app = gecko_apps::app_by_name("crc16").unwrap();
//! let config = SimConfig::bench_supply(SchemeKind::Gecko);
//! let mut sim = Simulator::new(&app, config).unwrap();
//! let m = sim.run_for(0.25); // a quarter second of device time
//! assert!(m.completions > 0, "crc16 completes many times: {m:?}");
//! assert_eq!(m.checksum_errors, 0);
//! ```

#![deny(missing_docs)]

pub mod areas;
pub mod device;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod scheme;
pub mod trace;

pub use device::{CompiledApp, ExecMode, FastPathStats, SimConfig, SimSnapshot, Simulator};
pub use metrics::Metrics;
pub use report::{Record, Value};
pub use scheme::SchemeKind;
pub use trace::{Trace, TraceSample};
