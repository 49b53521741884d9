#![warn(missing_docs)]

//! # SecureLoop
//!
//! A design-space-exploration tool for *secure* DNN accelerators —
//! accelerators whose off-chip traffic is protected by authenticated
//! encryption — reproducing Lee et al., *SecureLoop: Design Space
//! Exploration of Secure DNN Accelerators* (MICRO 2023).
//!
//! The scheduling search engine has the paper's three steps:
//!
//! 1. **Crypto-aware loopnest scheduling** ([`candidates`]): a
//!    Timeloop-style mapper run against the *effective* off-chip
//!    bandwidth `min(DRAM, crypto engines)`, retaining the top-k
//!    schedules per layer.
//! 2. **Optimal AuthBlock assignment** ([`tensors`], built on
//!    `secureloop-authblock`): per-tensor exhaustive search over block
//!    orientation and size using the closed-form linear-congruence
//!    counter, with `tile-as-an-AuthBlock` and rehashing as baselines.
//! 3. **Cross-layer fine-tuning** ([`annealing`]): simulated annealing
//!    over the per-layer top-k candidates, segment by segment
//!    (Algorithm 1 of the paper).
//!
//! [`Scheduler`] ties the steps together and exposes the three
//! algorithms of paper Table 1 ([`Algorithm`]); [`dse`] sweeps
//! architecture configurations (Figs. 13–16) and [`roofline`]
//! reproduces the Fig. 12 analysis.
//!
//! # Quickstart
//!
//! ```no_run
//! use secureloop::{Algorithm, Scheduler};
//! use secureloop_arch::Architecture;
//! use secureloop_crypto::{CryptoConfig, EngineClass};
//! use secureloop_workload::zoo;
//!
//! let secure = Architecture::eyeriss_base()
//!     .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
//! let scheduler = Scheduler::new(secure);
//! let schedule = scheduler
//!     .schedule(&zoo::alexnet_conv(), Algorithm::CryptOptCross)
//!     .expect("at least one layer schedules");
//! println!(
//!     "AlexNet: {} cycles, {:.1} uJ, +{} overhead bits",
//!     schedule.total_latency_cycles,
//!     schedule.total_energy_pj / 1e6,
//!     schedule.overhead.total_bits()
//! );
//! ```

pub mod annealing;
pub mod candidates;
pub mod checkpoint;
pub mod cli;
pub mod dse;
pub mod error;
pub mod fusion;
pub mod report;
pub mod roofline;
pub mod run;
pub mod scheduler;
pub mod segment;
pub mod service;
pub mod shutdown;
pub mod suite;
pub mod supervisor;
pub mod tensors;

pub use annealing::AnnealingConfig;
pub use candidates::{CandidateSet, LayerCandidates};
pub use checkpoint::SweepCheckpoint;
pub use error::SecureLoopError;
pub use run::RunSpec;
pub use scheduler::{Algorithm, LayerOutcome, LayerResult, NetworkSchedule, Scheduler};
pub use secureloop_artifact as artifact;
pub use supervisor::{SupervisedOutcome, SupervisorConfig};
