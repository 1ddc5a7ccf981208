//! # Salus — a practical TEE for CPU-FPGA heterogeneous cloud platforms
//!
//! A full-system Rust reproduction of *Salus* (Zou et al., ASPLOS 2024).
//! This facade crate re-exports the workspace's layers; see the
//! individual crates for details and `README.md` / `DESIGN.md` for the
//! architecture and experiment map.
//!
//! * [`crypto`] — from-scratch primitives (AES/GCM/CTR/CMAC, SHA-256,
//!   HMAC, SipHash-2-4, HMAC-DRBG, X25519).
//! * [`fpga`] — the FPGA device model (frames, ICAP, eFUSE, DNA, shell).
//! * [`bitstream`] — netlist → bitstream tooling, manipulation,
//!   encryption.
//! * [`tee`] — the SGX-class CPU TEE model (enclaves, local attestation,
//!   DCAP-style quotes).
//! * [`net`] — deterministic clock, latency model, adversarial channels.
//! * [`core`] — the Salus protocols: RoT injection, secure CL boot,
//!   CL attestation, cascaded attestation, secure register channel.
//! * [`accel`] — the five benchmark workloads and their runners.
//! * [`session`] — the high-level front door: deploy, run, monitor,
//!   redeploy.
//! * [`node`] — the multi-tenant node: a shared device fleet serving
//!   many tenants' sessions through the platform control plane.
//! * [`serving`] — the request plane: per-slot run queues, batched
//!   DMA fills, and pipelined DMA-in / compute / DMA-out execution
//!   multiplexing thousands of logical clients onto attested sessions.
//! * [`attest`] — the runtime re-attestation plane: epoch sweeps that
//!   challenge every live lane's CL, fence failures fail-closed, and
//!   record everything in the control plane's hash-chained audit log.
//!
//! ## Quickstart
//!
//! ```
//! use salus::core::boot::{secure_boot, BootPlan};
//! use salus::core::instance::TestBed;
//!
//! let mut bed = TestBed::quick_demo();
//! let outcome = secure_boot(&mut bed, BootPlan::single()).expect("honest boot succeeds");
//! assert!(outcome.report.all_attested());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod node;
pub mod serving;
pub mod session;

pub use salus_accel as accel;
pub use salus_bitstream as bitstream;
pub use salus_core as core;
pub use salus_crypto as crypto;
pub use salus_fpga as fpga;
pub use salus_net as net;
pub use salus_tee as tee;
