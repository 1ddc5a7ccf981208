//! The workload abstraction shared by all five applications.

use salus_bitstream::netlist::Module;

use crate::profile::AppProfile;

/// One benchmark application instance: concrete input data plus the
/// pure function the accelerator/CPU computes over it.
pub trait Workload: Send + Sync {
    /// Application name (matches [`AppProfile::name`]).
    fn name(&self) -> &'static str;

    /// The serialized input buffer (what crosses boundaries and gets
    /// encrypted).
    fn input(&self) -> &[u8];

    /// Computes the output from a serialized input. Pure and
    /// deterministic: the CPU path, the FPGA functional model, and the
    /// on-CL harness all call this and must agree byte-for-byte.
    ///
    /// Total over client payloads: an input of any length computes
    /// without panicking, to an output as long as the one for an input
    /// of [`Workload::input`]'s length. The fixed-size kernels read a
    /// short input as zero-extended and ignore bytes past their buffer.
    fn compute(&self, input: &[u8]) -> Vec<u8>;

    /// The accelerator netlist module with this design's Table 5
    /// resource footprint.
    fn accelerator_module(&self) -> Module;

    /// The calibrated timing profile.
    fn profile(&self) -> AppProfile;

    /// Whether output traffic is encrypted in TEE modes (Table 4: true
    /// for Affine and Rendering; ML-style apps leave outputs plaintext).
    fn encrypt_output(&self) -> bool;

    /// Clones the workload into an owned trait object (used by the
    /// full-stack harness to hand the compute function to the simulated
    /// accelerator).
    fn clone_box(&self) -> Box<dyn Workload>;
}

/// A workload with its input buffer replaced: the same accelerator,
/// profile, and compute function, fed a different payload.
///
/// This is what a multiplexed serving request is — thousands of
/// logical clients share one deployed accelerator and differ only in
/// the bytes they stream through it. The serial differential tests use
/// it to replay a queued request through the blocking
/// `SecureSession::run` path.
pub struct WithInput {
    inner: Box<dyn Workload>,
    input: Vec<u8>,
}

impl WithInput {
    /// Wraps `inner`'s accelerator around the request payload `input`.
    pub fn new(inner: &dyn Workload, input: Vec<u8>) -> WithInput {
        WithInput {
            inner: inner.clone_box(),
            input,
        }
    }
}

impl Workload for WithInput {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn input(&self) -> &[u8] {
        &self.input
    }

    fn compute(&self, input: &[u8]) -> Vec<u8> {
        self.inner.compute(input)
    }

    fn accelerator_module(&self) -> Module {
        self.inner.accelerator_module()
    }

    fn profile(&self) -> AppProfile {
        self.inner.profile()
    }

    fn encrypt_output(&self) -> bool {
        self.inner.encrypt_output()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(WithInput {
            inner: self.inner.clone_box(),
            input: self.input.clone(),
        })
    }
}

/// Constructs all five paper workloads at simulation scale.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(crate::apps::conv::Conv::paper_scale()),
        Box::new(crate::apps::affine::Affine::paper_scale()),
        Box::new(crate::apps::rendering::Rendering::paper_scale()),
        Box::new(crate::apps::facedetect::FaceDetect::paper_scale()),
        Box::new(crate::apps::nnsearch::NnSearch::paper_scale()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_five_workloads_exist_and_compute() {
        let workloads = all_workloads();
        assert_eq!(workloads.len(), 5);
        for w in &workloads {
            let out = w.compute(w.input());
            assert!(!out.is_empty(), "{} produced no output", w.name());
            // Determinism:
            assert_eq!(out, w.compute(w.input()), "{} not deterministic", w.name());
        }
    }

    #[test]
    fn every_input_length_computes_to_the_exact_output_length() {
        for w in all_workloads() {
            let n = w.input().len();
            let expected = w.compute(w.input()).len();
            for len in [0, 1, n / 2, n - 1, n + 1, 2 * n] {
                let input: Vec<u8> = w.input().iter().copied().cycle().take(len).collect();
                assert_eq!(
                    w.compute(&input).len(),
                    expected,
                    "{} at {len} of {n} bytes",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn names_match_profiles() {
        for w in all_workloads() {
            assert_eq!(w.name(), w.profile().name);
        }
    }

    #[test]
    fn accelerators_fit_the_u200_rp_with_sm_logic() {
        use salus_fpga::geometry::DeviceGeometry;
        let cap = DeviceGeometry::u200().partitions[0].capacity;
        let sm = salus_core::dev::sm_logic_module().total_resources();
        for w in all_workloads() {
            let total = w.accelerator_module().total_resources().plus(sm);
            assert!(total.fits_in(cap), "{} + SM logic overflows RP", w.name());
        }
    }
}
