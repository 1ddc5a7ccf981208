//! # salus-core
//!
//! The Salus system itself: a practical TEE for CPU-FPGA heterogeneous
//! cloud platforms (Zou et al., ASPLOS 2024), built on the simulated
//! substrates in `salus-crypto`, `salus-fpga`, `salus-bitstream`,
//! `salus-tee` and `salus-net`.
//!
//! ## What lives where
//!
//! * [`keys`] — the protocol's key material newtypes (`Key_attest`,
//!   `Key_session`, `Ctr_session`, `Key_device`, `Key_data`).
//! * [`dev`] — the development phase: the SM-logic HDK module, CL
//!   integration, compilation, and the published `(bitstream, Loc, H)`
//!   package.
//! * [`sm_logic`] — the SM logic at runtime (Figure 5): SipHash
//!   authentication unit, AES/HMAC-protected register channel, secrets
//!   read from the *loaded configuration frames*.
//! * [`cl_attest`] — the lightweight CL attestation protocol
//!   (Figure 4a / Table 2).
//! * [`reg_channel`] — the secure register channel (§4.5).
//! * [`ra`] — remote-attestation key exchange helpers (DCAP quote
//!   binding an X25519 key).
//! * [`manufacturer`] — the key-distribution service (device DNA →
//!   `Key_device`), gated on SM-enclave remote attestation.
//! * [`sm_app`] — the SM enclave application: bitstream verify /
//!   manipulate / encrypt, deployment, CL attestation.
//! * [`user_app`] — the user enclave application: client RA endpoint,
//!   local attestation to the SM enclave, cascaded report generation.
//! * [`client`] — the data owner's client.
//! * [`instance`] — wiring of one cloud instance: host platform, shell,
//!   FPGA, fabric endpoints.
//! * [`boot`] — the secure CL booting flow (Figure 3) with the virtual-
//!   time cost model behind Figure 9.
//! * [`timing`] — calibrated operation costs.
//! * [`attacks`] — attack-injection drivers for the Table 3 experiments.
//! * [`multi_rp`] — the §4.7 multi-partition extension.
//! * [`platform`] — the multi-tenant control plane: shared platform
//!   resources behind service traits, the device fleet, and the
//!   tenant deployment scheduler with warm redeploys.
//! * [`related`] — the qualitative comparison data behind Table 1.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` at the workspace root, or:
//!
//! ```
//! use salus_core::instance::TestBed;
//! use salus_core::boot::{secure_boot, BootPlan};
//!
//! let mut bed = TestBed::quick_demo();
//! let outcome = secure_boot(&mut bed, BootPlan::single()).expect("boot succeeds");
//! assert!(outcome.report.all_attested());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod boot;
pub mod cl_attest;
pub mod client;
pub mod dev;
pub mod instance;
pub mod keys;
pub mod manufacturer;
pub mod multi_rp;
pub mod platform;
pub mod ra;
pub mod reg_channel;
pub mod related;
pub mod runtime_attest;
pub mod services;
pub mod sm_app;
pub mod sm_logic;
pub mod timing;
pub mod user_app;

mod error;

pub use error::{FaultClass, PlaceError, SalusError};
