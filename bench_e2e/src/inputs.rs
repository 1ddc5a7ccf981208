//! Seeded input generation. The workload seed drives only the bytes of
//! served payloads and the churn operator's choices; the platform keeps
//! its own fixed seed.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for one named stream under `seed` (e.g. one client's
    /// request in one round), independent of every other stream.
    pub fn stream(seed: u64, coordinates: &[u64]) -> Rng {
        let mut rng = Rng::new(seed);
        for &c in coordinates {
            rng = Rng::new(rng.next_u64() ^ c);
        }
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The payload of one request: `len` seeded bytes for the stream at
/// `coordinates` under `seed`.
pub fn payload(seed: u64, coordinates: &[u64], len: usize) -> Vec<u8> {
    let mut rng = Rng::stream(seed, coordinates);
    let mut bytes = Vec::with_capacity(len + 8);
    while bytes.len() < len {
        bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    bytes.truncate(len);
    bytes
}
