//! The assembled FPGA device.
//!
//! A [`Device`] bundles DNA, key storage, the ICAP engine, a static
//! region (the shell's home) and one or more reconfigurable partitions.
//! All mutation goes through [`Device::icap_load`] — exactly the paper's
//! architecture, where the shell "uses a special on-board IP to
//! interface with the FPGA configuration memory" (§2.2).

use crate::dna::DeviceDna;
use crate::frame::ConfigMemory;
use crate::geometry::DeviceGeometry;
use crate::icap::{ConfigSink, Icap, LoadOutcome};
use crate::keys::{DeviceKey, KeyStore};
use crate::wire::{Cmd, Reg, WireWriter};
use crate::FpgaError;

/// FAR partition code addressing the static (shell) region.
pub const STATIC_PARTITION: usize = 0x7F;

/// A simulated FPGA board.
#[derive(Debug, Clone)]
pub struct Device {
    dna: DeviceDna,
    geometry: DeviceGeometry,
    keys: KeyStore,
    icap: Icap,
    static_region: ConfigMemory,
    partitions: Vec<ConfigMemory>,
    dram: Vec<u8>,
}

impl Device {
    /// Manufactures a device with the given geometry and serial number.
    /// The device ships with the Salus (readback-disabled) ICAP; use
    /// [`with_standard_icap`](Device::with_standard_icap) to model a
    /// COTS part.
    pub fn manufacture(geometry: DeviceGeometry, serial: u64) -> Device {
        Device {
            dna: DeviceDna::from_serial(serial),
            keys: KeyStore::new(),
            icap: Icap::salus(),
            static_region: ConfigMemory::blank(geometry.static_region),
            partitions: geometry
                .partitions
                .iter()
                .map(|p| ConfigMemory::blank(*p))
                .collect(),
            dram: vec![0; geometry.dram_bytes],
            geometry,
        }
    }

    /// Reads from on-board DRAM. This memory is **unsecure by design**:
    /// the shell (and hence the CSP) can read and write it freely; the
    /// developer's CL must encrypt anything sensitive it stores there
    /// (§3.1: "we delegate the task of data encryption and decryption to
    /// the developer").
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] on out-of-bounds access.
    pub fn dram_read(&self, offset: usize, len: usize) -> Result<Vec<u8>, FpgaError> {
        let range = self.dram_range(offset, len)?;
        Ok(self.dram[range].to_vec())
    }

    /// Writes to on-board DRAM (see [`dram_read`](Device::dram_read)).
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] on out-of-bounds access.
    pub fn dram_write(&mut self, offset: usize, data: &[u8]) -> Result<(), FpgaError> {
        let range = self.dram_range(offset, data.len())?;
        self.dram[range].copy_from_slice(data);
        Ok(())
    }

    /// The DRAM byte range `offset..offset + len`, if it lies inside
    /// DRAM. Both come from the shell, so the end is computed without
    /// overflow.
    fn dram_range(&self, offset: usize, len: usize) -> Result<std::ops::Range<usize>, FpgaError> {
        offset
            .checked_add(len)
            .filter(|&end| end <= self.dram.len())
            .map(|end| offset..end)
            .ok_or(FpgaError::FrameOutOfRange {
                index: offset as u32,
                limit: self.dram.len() as u32,
            })
    }

    /// DRAM capacity in bytes.
    pub fn dram_len(&self) -> usize {
        self.dram.len()
    }

    /// Swaps in the COTS ICAP with readback enabled (for the
    /// readback-attack ablation).
    pub fn with_standard_icap(mut self) -> Device {
        self.icap = Icap::standard();
        self
    }

    /// The device's DNA read port.
    pub fn dna(&self) -> DeviceDna {
        self.dna
    }

    /// Device geometry.
    pub fn geometry(&self) -> &DeviceGeometry {
        &self.geometry
    }

    /// The ICAP engine configuration.
    pub fn icap(&self) -> Icap {
        self.icap
    }

    /// Programs the eFUSE device key (manufacturing step).
    ///
    /// # Errors
    ///
    /// Fails if the eFUSE is already programmed.
    pub fn program_device_key(&mut self, key: DeviceKey) -> Result<(), FpgaError> {
        self.keys.program_efuse(key)
    }

    /// Loads a volatile BBRAM device key (field-programmable, unlike
    /// the write-once eFUSE).
    pub fn load_bbram_key(&mut self, key: DeviceKey) {
        self.keys.load_bbram(key);
    }

    /// Clears the BBRAM key (battery removal / tamper response).
    pub fn clear_bbram_key(&mut self) {
        self.keys.clear_bbram();
    }

    /// Whether a decryption key is fused.
    pub fn has_device_key(&self) -> bool {
        self.keys.has_key()
    }

    /// The shell's static-region configuration memory.
    pub fn static_region(&self) -> &ConfigMemory {
        &self.static_region
    }

    /// Whether the static region (the shell) has been configured.
    pub fn shell_loaded(&self) -> bool {
        self.static_region.is_configured()
    }

    /// Number of reconfigurable partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Immutable view of partition `index`'s configuration memory —
    /// this is *fabric-internal* state used by loaded-logic simulation,
    /// not a shell-accessible readback path.
    ///
    /// # Errors
    ///
    /// [`FpgaError::NoSuchPartition`] for an invalid index.
    pub fn partition(&self, index: usize) -> Result<&ConfigMemory, FpgaError> {
        self.partitions
            .get(index)
            .ok_or(FpgaError::NoSuchPartition(index))
    }

    /// Pushes a wire stream through the ICAP.
    ///
    /// # Errors
    ///
    /// See [`Icap::process`].
    pub fn icap_load(&mut self, stream: &[u8]) -> Result<LoadOutcome, FpgaError> {
        let icap = self.icap;
        icap.process(&mut DeviceSink(self), stream)
    }

    /// Convenience: attempt configuration readback of `partition` via an
    /// FDRO read request (what a malicious shell would issue).
    ///
    /// # Errors
    ///
    /// [`FpgaError::ReadbackDisabled`] on a Salus ICAP.
    pub fn attempt_readback(&mut self, partition: usize) -> Result<Vec<u8>, FpgaError> {
        if partition >= self.partitions.len() {
            return Err(FpgaError::NoSuchPartition(partition));
        }
        let words = self.partitions[partition].frame_count() as usize
            * self.geometry.family().frame_words();
        let mut w = WireWriter::new();
        w.write_cmd(Cmd::Rcfg)
            .write_reg(Reg::Far, &[(partition as u32) << 24])
            .read_request(Reg::Fdro, words);
        let outcome = self.icap_load(&w.finish())?;
        Ok(outcome.readback)
    }
}

/// Adapter giving the ICAP state machine access to device internals.
struct DeviceSink<'a>(&'a mut Device);

impl ConfigSink for DeviceSink<'_> {
    fn device_key(&self) -> Result<DeviceKey, FpgaError> {
        self.0.keys.configuration_engine_key()
    }

    fn dna_raw(&self) -> u64 {
        self.0.dna.read()
    }

    fn frame_bytes(&self) -> usize {
        self.0.geometry.family().frame_bytes()
    }

    fn family_code(&self) -> u32 {
        self.0.geometry.family().code()
    }

    fn commit_partition(&mut self, index: usize, frames: Vec<u8>) -> Result<(), FpgaError> {
        if index == STATIC_PARTITION {
            return self.0.static_region.reconfigure(frames);
        }
        self.0
            .partitions
            .get_mut(index)
            .ok_or(FpgaError::NoSuchPartition(index))?
            .reconfigure(frames)
    }

    fn read_partition(&self, index: usize) -> Result<Vec<u8>, FpgaError> {
        if index == STATIC_PARTITION {
            return Ok(self.0.static_region.flatten());
        }
        Ok(self
            .0
            .partitions
            .get(index)
            .ok_or(FpgaError::NoSuchPartition(index))?
            .flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyId;
    use crate::wire;

    const FRAME_BYTES: usize = FamilyId::UltraScale.frame_bytes();

    fn tiny_device() -> Device {
        Device::manufacture(DeviceGeometry::tiny(), 1)
    }

    fn full_plain_stream(device: &Device, partition: u32, fill: u8) -> Vec<u8> {
        let frames = device.partitions[partition as usize].frame_count() as usize;
        let data = vec![fill; frames * FRAME_BYTES];
        let far = partition << 24;
        let mut w = WireWriter::new();
        w.write_cmd(Cmd::Rcrc)
            .write_reg(Reg::Far, &[far])
            .write_cmd(Cmd::Wcfg)
            .write_long_bytes(Reg::Fdri, &data);
        let mut crc_input = far.to_be_bytes().to_vec();
        crc_input.extend_from_slice(&data);
        w.write_reg(Reg::Crc, &[wire::crc32(&crc_input)]);
        w.finish()
    }

    #[test]
    fn plaintext_partial_load() {
        let mut d = tiny_device();
        let stream = full_plain_stream(&d, 0, 0x77);
        let outcome = d.icap_load(&stream).unwrap();
        assert_eq!(outcome.loads.len(), 1);
        assert!(d.partition(0).unwrap().is_configured());
        assert_eq!(d.partition(0).unwrap().frame(0).unwrap()[0], 0x77);
    }

    #[test]
    fn malformed_encrypted_streams_are_refused_without_panicking() {
        // Truncations, bit flips and length-header lies of an encrypted
        // stream each end in a typed error, and none reaches
        // configuration memory. Positions cover every byte of the
        // headers, nonce, length header, tag and DESYNC, plus a stride
        // through the ciphertext.
        let mut d = tiny_device();
        let key = [5u8; 32];
        d.program_device_key(key).unwrap();
        let inner = full_plain_stream(&d, 0, 0x42);
        let stream = wire::build_encrypted_stream(&key, &[1u8; 12], d.dna().read(), &inner);
        let positions: Vec<usize> = (0..80)
            .chain((80..stream.len() - 40).step_by(997))
            .chain(stream.len() - 40..stream.len())
            .collect();
        let mut refuse = |bad: &[u8], what: String| {
            assert!(d.icap_load(bad).is_err(), "{what} was accepted");
        };

        for &len in &positions {
            refuse(&stream[..len], format!("truncation to {len} bytes"));
        }
        for &at in &positions {
            for bit in 0..8 {
                let mut bad = stream.clone();
                bad[at] ^= 1 << bit;
                refuse(&bad, format!("bit {bit} of byte {at} flipped"));
            }
        }
        // The length header follows the dummy words, sync word, the two
        // ENC packet headers and the nonce.
        let header = 4 * (8 + 1 + 2) + wire::ENC_NONCE_BYTES;
        let sealed = inner.len() as u64;
        for lie in [
            0,
            1,
            sealed - 8,
            sealed - 1,
            sealed + 1,
            sealed + 8,
            u64::MAX,
        ] {
            let mut bad = stream.clone();
            bad[header..header + 8].copy_from_slice(&lie.to_be_bytes());
            refuse(&bad, format!("length header {lie}"));
        }

        assert!(!d.partition(0).unwrap().is_configured());
        d.icap_load(&stream).expect("the intact stream still loads");
    }

    #[test]
    fn encrypted_partial_load_needs_fused_key() {
        let mut d = tiny_device();
        let inner = full_plain_stream(&d, 0, 0x42);
        let key = [5u8; 32];
        let stream = wire::build_encrypted_stream(&key, &[1u8; 12], d.dna().read(), &inner);

        // No key fused yet.
        assert_eq!(d.icap_load(&stream).unwrap_err(), FpgaError::NoDeviceKey);

        d.program_device_key(key).unwrap();
        let outcome = d.icap_load(&stream).unwrap();
        assert!(outcome.loads[0].encrypted);
        assert_eq!(d.partition(0).unwrap().frame(0).unwrap()[0], 0x42);
    }

    #[test]
    fn bbram_key_flow_end_to_end() {
        let mut d = tiny_device();
        let inner = full_plain_stream(&d, 0, 0x21);
        let key = [0x66u8; 32];
        let stream = wire::build_encrypted_stream(&key, &[2u8; 12], d.dna().read(), &inner);

        d.load_bbram_key(key);
        d.icap_load(&stream).unwrap();
        assert!(d.partition(0).unwrap().is_configured());

        // Tamper response: clearing BBRAM disables further loads.
        d.clear_bbram_key();
        assert_eq!(d.icap_load(&stream).unwrap_err(), FpgaError::NoDeviceKey);
        // Reloading a (different) key restores operation with that key
        // only.
        d.load_bbram_key([0x77u8; 32]);
        assert_eq!(
            d.icap_load(&stream).unwrap_err(),
            FpgaError::DecryptionFailed
        );
    }

    #[test]
    fn envelope_bound_to_device_dna() {
        let mut d = tiny_device();
        d.program_device_key([5u8; 32]).unwrap();
        let inner = full_plain_stream(&d, 0, 0x42);
        // Sealed for a *different* device's DNA.
        let other = DeviceDna::from_serial(999).read();
        let stream = wire::build_encrypted_stream(&[5u8; 32], &[1u8; 12], other, &inner);
        assert_eq!(
            d.icap_load(&stream).unwrap_err(),
            FpgaError::DecryptionFailed
        );
    }

    #[test]
    fn readback_disabled_on_salus_icap() {
        let mut d = tiny_device();
        let stream = full_plain_stream(&d, 0, 0x11);
        d.icap_load(&stream).unwrap();
        assert_eq!(
            d.attempt_readback(0).unwrap_err(),
            FpgaError::ReadbackDisabled
        );
    }

    #[test]
    fn readback_possible_on_standard_icap() {
        let mut d = tiny_device().with_standard_icap();
        let stream = full_plain_stream(&d, 0, 0x11);
        d.icap_load(&stream).unwrap();
        let data = d.attempt_readback(0).unwrap();
        assert!(!data.is_empty());
        assert!(data.iter().all(|&b| b == 0x11));
    }

    #[test]
    fn invalid_partition_errors() {
        let mut d = tiny_device();
        assert_eq!(d.partition(5).unwrap_err(), FpgaError::NoSuchPartition(5));
        assert_eq!(
            d.attempt_readback(5).unwrap_err(),
            FpgaError::NoSuchPartition(5)
        );
    }

    #[test]
    fn static_region_loads_via_its_far_code() {
        let mut d = tiny_device();
        let frames = d.static_region().frame_count() as usize;
        let data = vec![0x5Cu8; frames * FRAME_BYTES];
        let far = (STATIC_PARTITION as u32) << 24;
        let mut w = WireWriter::new();
        w.write_cmd(Cmd::Rcrc)
            .write_reg(Reg::Far, &[far])
            .write_cmd(Cmd::Wcfg)
            .write_long_bytes(Reg::Fdri, &data);
        let mut crc_input = far.to_be_bytes().to_vec();
        crc_input.extend_from_slice(&data);
        w.write_reg(Reg::Crc, &[wire::crc32(&crc_input)]);
        assert!(!d.shell_loaded());
        d.icap_load(&w.finish()).unwrap();
        assert!(d.shell_loaded());
        // The reconfigurable partition is untouched.
        assert!(!d.partition(0).unwrap().is_configured());
    }

    #[test]
    fn one_stream_can_configure_multiple_partitions() {
        // A single wire stream with two FAR/FDRI/CRC sequences loads two
        // partitions — the §4.7 multi-RP deployment path.
        let rp = DeviceGeometry::tiny().partitions[0];
        let geometry = DeviceGeometry {
            static_region: rp,
            partitions: vec![rp, rp],
            clock_hz: 100_000_000,
            dram_bytes: 1 << 20,
        };
        let mut d = Device::manufacture(geometry, 2);
        let frames = d.partition(0).unwrap().frame_count() as usize;

        let mut w = WireWriter::new();
        for (partition, fill) in [(0u32, 0xAAu8), (1u32, 0xBBu8)] {
            let data = vec![fill; frames * FRAME_BYTES];
            let far = partition << 24;
            w.write_cmd(Cmd::Rcrc)
                .write_reg(Reg::Far, &[far])
                .write_cmd(Cmd::Wcfg)
                .write_long_bytes(Reg::Fdri, &data);
            let mut crc_input = far.to_be_bytes().to_vec();
            crc_input.extend_from_slice(&data);
            w.write_reg(Reg::Crc, &[wire::crc32(&crc_input)]);
        }
        let outcome = d.icap_load(&w.finish()).unwrap();
        assert_eq!(outcome.loads.len(), 2);
        assert_eq!(d.partition(0).unwrap().frame(0).unwrap()[0], 0xAA);
        assert_eq!(d.partition(1).unwrap().frame(0).unwrap()[0], 0xBB);
    }

    #[test]
    fn dram_roundtrip_and_bounds() {
        let mut d = tiny_device();
        d.dram_write(100, b"hello").unwrap();
        assert_eq!(d.dram_read(100, 5).unwrap(), b"hello");
        let len = d.dram_len();
        assert!(d.dram_write(len - 2, b"xyz").is_err());
        assert!(d.dram_read(len, 1).is_err());
    }

    #[test]
    fn shell_dram_access_near_usize_max_is_refused() {
        // `offset + len` overflows for every case: each must be an
        // error, not an overflow or slice panic.
        let shell = crate::shell::Shell::new(tiny_device());
        for offset in [usize::MAX, usize::MAX - 1, usize::MAX - 3] {
            assert!(shell.tamper_dram(offset, &[1, 2, 3, 4]).is_err());
            assert!(shell.dma_write(offset, &[1, 2, 3, 4]).is_err());
            assert!(shell.snoop_dram(offset, 4).is_err());
            assert!(shell.dma_read(offset, 4).is_err());
        }
        assert!(shell.snoop_dram(1, usize::MAX).is_err());
        assert!(shell.dma_read(usize::MAX, usize::MAX).is_err());
        // Nothing refused reached DRAM.
        let device = shell.device();
        let device = device.lock();
        assert!(device
            .dram_read(0, device.dram_len())
            .unwrap()
            .iter()
            .all(|&b| b == 0));
    }

    #[test]
    fn reload_fully_replaces_partition() {
        let mut d = tiny_device();
        d.icap_load(&full_plain_stream(&d, 0, 0xAA)).unwrap();
        d.icap_load(&full_plain_stream(&d, 0, 0xBB)).unwrap();
        let flat = d.partition(0).unwrap().flatten();
        assert!(flat.iter().all(|&b| b == 0xBB), "no stale bytes survive");
    }
}
