//! NNSearch: nearest-neighbour linear search
//! (Xilinx SDAccel example; Table 4 row 5).
//!
//! For each query point, exhaustively scan the target set and report the
//! index of the closest target (squared Euclidean distance, 3D i16
//! coordinates). Targets and queries are both encrypted in TEE modes.

use salus_bitstream::netlist::Module;

use crate::data::{bytes_to_i16s, fit, i16s_to_bytes, DataGen};
use crate::profile::AppProfile;
use crate::workload::Workload;

/// The NNSearch workload.
#[derive(Debug, Clone)]
pub struct NnSearch {
    targets: usize,
    queries: usize,
    input: Vec<u8>,
}

impl NnSearch {
    /// Builds an instance with the given set sizes.
    pub fn new(targets: usize, queries: usize) -> NnSearch {
        let mut gen = DataGen::new("nnsearch");
        let points = gen.i16s((targets + queries) * 3, 1000);
        NnSearch {
            targets,
            queries,
            input: i16s_to_bytes(&points),
        }
    }

    /// The simulation-scale instance.
    pub fn paper_scale() -> NnSearch {
        NnSearch::new(512, 64)
    }
}

impl Workload for NnSearch {
    fn name(&self) -> &'static str {
        "NNSearch"
    }

    fn input(&self) -> &[u8] {
        &self.input
    }

    /// Output: one little-endian u32 target index per query.
    fn compute(&self, input: &[u8]) -> Vec<u8> {
        let points = bytes_to_i16s(&fit(input, self.input.len()));
        let (targets, queries) = points.split_at(self.targets * 3);
        let mut out = Vec::with_capacity(self.queries * 4);
        for q in queries.chunks_exact(3) {
            let mut best = (u64::MAX, 0u32);
            for (i, t) in targets.chunks_exact(3).enumerate() {
                let dx = (q[0] as i64 - t[0] as i64).unsigned_abs().pow(2);
                let dy = (q[1] as i64 - t[1] as i64).unsigned_abs().pow(2);
                let dz = (q[2] as i64 - t[2] as i64).unsigned_abs().pow(2);
                let dist = dx + dy + dz;
                // Strictly-less keeps the first of equidistant targets,
                // matching the sequential hardware scan.
                if dist < best.0 {
                    best = (dist, i as u32);
                }
            }
            out.extend_from_slice(&best.1.to_le_bytes());
        }
        out
    }

    fn accelerator_module(&self) -> Module {
        // Table 5: NNSearch = 49 069 LUT, 42 568 Register, 122 BRAM.
        Module::new("cl/accel", "accel:nnsearch").with_resources(49_069, 42_568, 122)
    }

    fn profile(&self) -> AppProfile {
        crate::profile::nnsearch()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn encrypt_output(&self) -> bool {
        false // targets and queries in, plaintext indices out (Table 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_matches_queries() {
        let nn = NnSearch::new(100, 7);
        assert_eq!(nn.compute(nn.input()).len(), 7 * 4);
    }

    #[test]
    fn exact_match_is_found() {
        // Query equal to target 5 must return index 5.
        let nn = NnSearch::new(10, 1);
        let mut points = bytes_to_i16s(nn.input());
        let t5 = [points[15], points[16], points[17]];
        let query_base = 10 * 3;
        points[query_base] = t5[0];
        points[query_base + 1] = t5[1];
        points[query_base + 2] = t5[2];
        let out = nn.compute(&i16s_to_bytes(&points));
        let idx = u32::from_le_bytes(out[..4].try_into().unwrap());
        // Index 5 unless an earlier target coincides exactly.
        let winner = &points[idx as usize * 3..idx as usize * 3 + 3];
        assert_eq!(winner, &t5);
    }

    #[test]
    fn brute_force_agrees() {
        let nn = NnSearch::new(64, 8);
        let out = nn.compute(nn.input());
        let points = bytes_to_i16s(nn.input());
        let (targets, queries) = points.split_at(64 * 3);
        for (qi, q) in queries.chunks_exact(3).enumerate() {
            let expected = targets
                .chunks_exact(3)
                .enumerate()
                .min_by_key(|(i, t)| {
                    let d = (q[0] as i64 - t[0] as i64).pow(2)
                        + (q[1] as i64 - t[1] as i64).pow(2)
                        + (q[2] as i64 - t[2] as i64).pow(2);
                    (d, *i)
                })
                .unwrap()
                .0 as u32;
            let got = u32::from_le_bytes(out[qi * 4..qi * 4 + 4].try_into().unwrap());
            assert_eq!(got, expected, "query {qi}");
        }
    }
}
