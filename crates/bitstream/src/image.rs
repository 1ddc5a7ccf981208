//! Decoding loaded configuration memory back into logic semantics.
//!
//! On real silicon the configuration bits *are* the logic. The
//! simulation's equivalent: once a partition is configured, the
//! behavioural layer decodes a [`LogicImage`] out of the frames and
//! executes module behaviour against it. Secrets injected by bitstream
//! manipulation are therefore read from the *actually loaded frames* —
//! if the injection or the load was tampered with, the downstream
//! attestation genuinely observes wrong bytes rather than a Rust field
//! that was never at risk.

use salus_fpga::frame::ConfigMemory;
use salus_fpga::geometry::Resources;

use crate::compile::{IMAGE_MAGIC, IMAGE_VERSION};
use crate::BitstreamError;

/// A BRAM cell as recorded in a loaded image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedBram {
    /// Cell name within its module.
    pub name: String,
    /// Assigned BRAM slot.
    pub slot: u32,
    /// Bytes of meaningful initial contents.
    pub init_len: usize,
}

/// A module instance as recorded in a loaded image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedModule {
    /// Hierarchical path.
    pub path: String,
    /// Behavioural role descriptor.
    pub role: String,
    /// Behavioural parameters.
    pub params: Vec<u8>,
    /// Resource footprint.
    pub resources: Resources,
    /// Named BRAM cells.
    pub brams: Vec<LoadedBram>,
}

/// The decoded logic of one configured partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicImage {
    modules: Vec<LoadedModule>,
    logic_frames: u32,
    frames_per_bram: u32,
}

impl LogicImage {
    /// Decodes the module table from a configured partition.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::UndecodableImage`] if the partition is not
    /// configured or does not hold a well-formed image.
    pub fn decode(config: &ConfigMemory) -> Result<LogicImage, BitstreamError> {
        if !config.is_configured() {
            return Err(BitstreamError::UndecodableImage("partition not configured"));
        }
        let geometry = config.geometry();
        let logic_bytes = geometry.logic_frames as usize * geometry.frame_bytes();
        let bytes = config
            .read_bytes(0, 0, logic_bytes)
            .map_err(BitstreamError::Fpga)?;

        let undecodable = |what: &'static str| BitstreamError::UndecodableImage(what);
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], BitstreamError> {
            let s = bytes
                .get(*pos..*pos + n)
                .ok_or(BitstreamError::UndecodableImage("truncated table"))?;
            *pos += n;
            Ok(s)
        };

        if take(&mut pos, 4)? != IMAGE_MAGIC {
            return Err(undecodable("bad magic"));
        }
        if take(&mut pos, 1)?[0] != IMAGE_VERSION {
            return Err(undecodable("bad version"));
        }
        let module_count = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2")) as usize;
        let mut modules = Vec::with_capacity(module_count);
        for _ in 0..module_count {
            let path = read_str(&bytes, &mut pos)?;
            let role = read_str(&bytes, &mut pos)?;
            let params_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
            let params = take(&mut pos, params_len)?.to_vec();
            let lut = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4"));
            let register = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4"));
            let bram = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4"));
            let bram_count = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2")) as usize;
            let mut brams = Vec::with_capacity(bram_count);
            for _ in 0..bram_count {
                let name = read_str(&bytes, &mut pos)?;
                let slot = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4"));
                let init_len =
                    u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
                brams.push(LoadedBram {
                    name,
                    slot,
                    init_len,
                });
            }
            modules.push(LoadedModule {
                path,
                role,
                params,
                resources: Resources {
                    lut,
                    register,
                    bram,
                },
                brams,
            });
        }

        Ok(LogicImage {
            modules,
            logic_frames: geometry.logic_frames,
            frames_per_bram: geometry.family.frames_per_bram(),
        })
    }

    /// Module instances.
    pub fn modules(&self) -> &[LoadedModule] {
        &self.modules
    }

    /// Finds the first module with the given role.
    pub fn find_role(&self, role: &str) -> Option<&LoadedModule> {
        self.modules.iter().find(|m| m.role == role)
    }

    /// Reads the live contents of the named BRAM cell
    /// (`module_path/cell_name`) from the configured frames.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::UnknownCell`] if no such cell exists in the
    /// image.
    pub fn read_bram(&self, config: &ConfigMemory, path: &str) -> Result<Vec<u8>, BitstreamError> {
        for module in &self.modules {
            for cell in &module.brams {
                if format!("{}/{}", module.path, cell.name) == path {
                    let frame = self.logic_frames + cell.slot * self.frames_per_bram;
                    return config
                        .read_bytes(frame, 0, cell.init_len)
                        .map_err(BitstreamError::Fpga);
                }
            }
        }
        Err(BitstreamError::UnknownCell(path.to_owned()))
    }
}

fn read_str(bytes: &[u8], pos: &mut usize) -> Result<String, BitstreamError> {
    let undecodable = BitstreamError::UndecodableImage("truncated string");
    let len_bytes = bytes.get(*pos..*pos + 2).ok_or(undecodable.clone())?;
    *pos += 2;
    let len = u16::from_le_bytes(len_bytes.try_into().expect("2")) as usize;
    let s = bytes.get(*pos..*pos + len).ok_or(undecodable.clone())?;
    *pos += len;
    String::from_utf8(s.to_vec()).map_err(|_| BitstreamError::UndecodableImage("non-utf8 string"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::netlist::{BramCell, Module, Netlist};
    use salus_fpga::device::Device;
    use salus_fpga::geometry::DeviceGeometry;

    fn loaded_device() -> Device {
        let mut n = Netlist::new("img-test");
        n.add_module(
            Module::new("top/sm", "sm_logic")
                .with_resources(10, 20, 0)
                .with_params(vec![1, 2, 3])
                .with_bram(BramCell::new("key_attest", vec![0x5A; 32]).unwrap()),
        );
        n.add_module(
            Module::new("top/accel", "accel:conv")
                .with_resources(30, 40, 1)
                .with_bram(BramCell::new("weights", vec![0xC3; 100]).unwrap()),
        );
        let geometry = DeviceGeometry::tiny();
        let compiled = compile(&n, geometry.partitions[0], 0).unwrap();
        let mut device = Device::manufacture(geometry, 1);
        device.icap_load(&compiled.wire).unwrap();
        device
    }

    #[test]
    fn decode_recovers_module_table() {
        let device = loaded_device();
        let image = LogicImage::decode(device.partition(0).unwrap()).unwrap();
        assert_eq!(image.modules().len(), 2);
        assert_eq!(image.find_role("sm_logic").unwrap().path, "top/sm");
        assert_eq!(image.find_role("accel:conv").unwrap().resources.lut, 30);
        assert_eq!(image.find_role("sm_logic").unwrap().params, vec![1, 2, 3]);
        assert!(image.find_role("missing").is_none());
    }

    #[test]
    fn read_bram_returns_loaded_contents() {
        let device = loaded_device();
        let config = device.partition(0).unwrap();
        let image = LogicImage::decode(config).unwrap();
        assert_eq!(
            image.read_bram(config, "top/sm/key_attest").unwrap(),
            vec![0x5A; 32]
        );
        assert_eq!(
            image.read_bram(config, "top/accel/weights").unwrap(),
            vec![0xC3; 100]
        );
        assert!(matches!(
            image.read_bram(config, "top/ghost/x"),
            Err(BitstreamError::UnknownCell(_))
        ));
    }

    #[test]
    fn unconfigured_partition_does_not_decode() {
        let device = Device::manufacture(DeviceGeometry::tiny(), 1);
        assert!(matches!(
            LogicImage::decode(device.partition(0).unwrap()),
            Err(BitstreamError::UndecodableImage(_))
        ));
    }

    #[test]
    fn garbage_configuration_does_not_decode() {
        let geometry = DeviceGeometry::tiny();
        let mut config = salus_fpga::frame::ConfigMemory::blank(geometry.partitions[0]);
        config
            .reconfigure(&[&vec![0x99; geometry.partitions[0].config_bytes()]])
            .unwrap();
        assert!(matches!(
            LogicImage::decode(&config),
            Err(BitstreamError::UndecodableImage(_))
        ));
    }
}
