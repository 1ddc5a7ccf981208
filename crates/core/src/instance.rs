//! Wiring of one simulated cloud deployment (the §6.1 experimental
//! setup): a TEE-enabled host with user + SM enclaves, a shell-managed
//! FPGA over PCIe, a manufacturer key server intra-cloud, a user client
//! over the WAN, and the attestation service.
//!
//! Construction goes through [`TestBedBuilder`]: the legacy presets
//! ([`TestBed::quick_demo`] / [`TestBed::paper_scale`]) build a private
//! single-tenant world, while the platform control plane passes a
//! [`SharedPlatform`], a leased fleet
//! device, and per-tenant [`EndpointNames`] so many beds coexist on one
//! fabric.

use salus_bitstream::netlist::Module;
use salus_fpga::geometry::{DeviceGeometry, DramWindow};
use salus_fpga::shell::Shell;
use salus_net::channel::Channel;
use salus_net::clock::SimClock;
use salus_net::latency::{LatencyModel, LinkClass};
use salus_net::rpc::RpcFabric;
use salus_tee::platform::SgxPlatform;
use salus_tee::quote::AttestationService;

use crate::client::UserClient;
use crate::dev::{
    develop_cl, loopback_accelerator, sm_enclave_image, user_enclave_image, ClPackage,
};
use crate::keys::KeyData;
use crate::platform::{KeyService, SharedManufacturer, SharedPlatform};
use crate::reg_channel::HostRegChannel;
use crate::sm_app::SmApp;
use crate::sm_logic::SmLogic;
use crate::timing::CostModel;
use crate::user_app::UserApp;

/// Fabric endpoint names of a standalone single-tenant deployment.
/// Fleet deployments use per-tenant names (see
/// [`EndpointNames::tenant`]); these constants remain the default.
pub mod endpoints {
    /// The data owner's laptop.
    pub const CLIENT: &str = "user-client";
    /// The cloud instance host.
    pub const HOST: &str = "cloud-host";
    /// The manufacturer key server.
    pub const MANUFACTURER: &str = "manufacturer";
    /// The FPGA board (reached through the shell).
    pub const FPGA: &str = "fpga";
    /// The user enclave's IPC endpoint.
    pub const USER_ENCLAVE: &str = "user-enclave";
    /// The SM enclave's IPC endpoint.
    pub const SM_ENCLAVE: &str = "sm-enclave";
}

/// The fabric endpoint names one deployment's parties answer on.
///
/// Every protocol step addresses peers through this table instead of
/// the global constants, which is what lets many tenants share one
/// fabric: tenant-scoped names for the per-tenant parties, the shared
/// name for the manufacturer, and the fleet name for the leased board.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointNames {
    /// The data owner's client endpoint.
    pub client: String,
    /// The cloud host endpoint.
    pub host: String,
    /// The manufacturer key-server endpoint (shared across tenants).
    pub manufacturer: String,
    /// The FPGA board endpoint.
    pub fpga: String,
    /// The user enclave's IPC endpoint.
    pub user_enclave: String,
    /// The SM enclave's IPC endpoint.
    pub sm_enclave: String,
}

impl Default for EndpointNames {
    fn default() -> EndpointNames {
        EndpointNames::legacy()
    }
}

impl EndpointNames {
    /// The standalone single-tenant names ([`endpoints`] constants).
    pub fn legacy() -> EndpointNames {
        EndpointNames {
            client: endpoints::CLIENT.to_string(),
            host: endpoints::HOST.to_string(),
            manufacturer: endpoints::MANUFACTURER.to_string(),
            fpga: endpoints::FPGA.to_string(),
            user_enclave: endpoints::USER_ENCLAVE.to_string(),
            sm_enclave: endpoints::SM_ENCLAVE.to_string(),
        }
    }

    /// Names for fleet tenant `tenant` deploying onto the board at
    /// `fpga_endpoint` (e.g. `fleet.dev2.fpga`): tenant-scoped client,
    /// host, and enclave endpoints; the shared manufacturer.
    pub fn tenant(tenant: u64, fpga_endpoint: &str) -> EndpointNames {
        EndpointNames {
            client: format!("tenant{tenant}.client"),
            host: format!("tenant{tenant}.host"),
            manufacturer: endpoints::MANUFACTURER.to_string(),
            fpga: fpga_endpoint.to_string(),
            user_enclave: format!("tenant{tenant}.user-enclave"),
            sm_enclave: format!("tenant{tenant}.sm-enclave"),
        }
    }
}

/// Configuration for provisioning a test bed.
#[derive(Debug, Clone)]
pub struct TestBedConfig {
    /// FPGA device geometry.
    pub geometry: DeviceGeometry,
    /// Operation cost model.
    pub cost: CostModel,
    /// Link latency model.
    pub latency: LatencyModel,
    /// Deterministic seed for every party's randomness.
    pub seed: u64,
    /// The accelerator module integrated into the CL.
    pub accelerator: Module,
    /// The host platform's TCB level (defaults to fully patched).
    pub platform_svn: u16,
}

impl TestBedConfig {
    /// The paper-scale configuration: U200 geometry, calibrated costs.
    pub fn paper() -> TestBedConfig {
        TestBedConfig {
            geometry: DeviceGeometry::u200(),
            cost: CostModel::paper_calibrated(),
            latency: LatencyModel::paper_calibrated(),
            seed: 42,
            accelerator: loopback_accelerator(),
            platform_svn: salus_tee::quote::CURRENT_SVN,
        }
    }

    /// A tiny, zero-cost configuration for fast functional tests.
    pub fn quick() -> TestBedConfig {
        TestBedConfig {
            geometry: DeviceGeometry::tiny(),
            cost: CostModel::zero(),
            latency: LatencyModel::zero(),
            seed: 42,
            accelerator: loopback_accelerator(),
            platform_svn: salus_tee::quote::CURRENT_SVN,
        }
    }

    /// Replaces the accelerator (builder-style).
    pub fn with_accelerator(mut self, accelerator: Module) -> TestBedConfig {
        self.accelerator = accelerator;
        self
    }

    /// Replaces the seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> TestBedConfig {
        self.seed = seed;
        self
    }
}

/// Builder for [`TestBed`]: the single provisioning path shared by the
/// legacy presets and the fleet control plane.
#[derive(Debug)]
pub struct TestBedBuilder {
    config: TestBedConfig,
    names: EndpointNames,
    shared: Option<SharedPlatform>,
    device: Option<(Shell, usize)>,
    tenant_seed: Option<u64>,
    rpc_key_service: bool,
}

impl TestBedBuilder {
    /// Starts a builder from `config` with legacy endpoint names, a
    /// private platform, and a freshly manufactured device.
    pub fn new(config: TestBedConfig) -> TestBedBuilder {
        TestBedBuilder {
            config,
            names: EndpointNames::legacy(),
            shared: None,
            device: None,
            tenant_seed: None,
            rpc_key_service: false,
        }
    }

    /// Uses `names` instead of the legacy endpoint constants.
    pub fn names(mut self, names: EndpointNames) -> TestBedBuilder {
        self.names = names;
        self
    }

    /// Reuses the long-lived shared platform (clock, fabric,
    /// attestation, host TEE, manufacturer) instead of provisioning a
    /// private one.
    pub fn on_platform(mut self, shared: SharedPlatform) -> TestBedBuilder {
        self.shared = Some(shared);
        self
    }

    /// Targets an already-provisioned board (a fleet lease) at
    /// `partition` instead of manufacturing a private device.
    pub fn with_device(mut self, shell: Shell, partition: usize) -> TestBedBuilder {
        self.device = Some((shell, partition));
        self
    }

    /// Seeds the data owner's randomness and data key per tenant
    /// (defaults to the config seed).
    pub fn tenant_seed(mut self, seed: u64) -> TestBedBuilder {
        self.tenant_seed = Some(seed);
        self
    }

    /// Routes this bed's key-distribution traffic over the RPC fabric
    /// (host → manufacturer endpoint) instead of calling the shared
    /// manufacturer in-process, so the §4.3 round trip crosses the
    /// adversarial fabric — latency, drops, and outages included.
    pub fn rpc_key_service(mut self, enable: bool) -> TestBedBuilder {
        self.rpc_key_service = enable;
        self
    }

    /// Provisions the deployment.
    ///
    /// # Panics
    ///
    /// Panics if the accelerator does not fit the configured geometry —
    /// a configuration error, not a runtime condition.
    pub fn build(self) -> TestBed {
        let TestBedBuilder {
            config,
            names,
            shared,
            device,
            tenant_seed,
            rpc_key_service,
        } = self;
        let tenant_seed = tenant_seed.unwrap_or(config.seed);

        let SharedPlatform {
            clock,
            fabric,
            attestation,
            sgx: platform,
            qe,
            manufacturer,
        } = shared.unwrap_or_else(|| {
            SharedPlatform::provision(config.seed, config.platform_svn, config.latency.clone())
        });

        fabric.set_route(&names.client, &names.host, LinkClass::Wan);
        fabric.set_route(&names.host, &names.manufacturer, LinkClass::IntraCloud);
        fabric.set_route(&names.host, &names.fpga, LinkClass::Pcie);
        fabric.set_route(&names.user_enclave, &names.sm_enclave, LinkClass::Loopback);

        let user_image = user_enclave_image();
        let sm_image = sm_enclave_image();

        // Instance creation: either the CSP already leased us a
        // provisioned board (fleet path) or we manufacture one and load
        // the shell ourselves (standalone path).
        let (shell, partition) = device.unwrap_or_else(|| {
            let device = manufacturer.manufacture_device(config.geometry.clone(), config.seed);
            let shell_image = crate::dev::build_shell_image(&config.geometry)
                .expect("shell compiles for configured geometry");
            let shell = Shell::provision(device, &shell_image).expect("shell image loads");
            (shell, 0)
        });
        let dram_window = config
            .geometry
            .dram_window(partition)
            .expect("target partition exists in configured geometry");

        // Development domain.
        let package = develop_cl(
            config.accelerator.clone(),
            config.geometry.partitions[partition],
            partition,
        )
        .expect("accelerator fits configured geometry");
        let cl_store = package.compiled.wire.clone();

        // Cloud instance domain.
        let user_enclave = platform.load_enclave(&user_image).expect("EPC space");
        let sm_enclave = platform.load_enclave(&sm_image).expect("EPC space");
        let user_app = UserApp::new(user_enclave, qe.clone(), sm_image.measure());
        let sm_app = SmApp::new(sm_enclave, qe, user_image.measure());

        // Data owner domain.
        let mut key_seed = [0u8; 32];
        key_seed[..8].copy_from_slice(&tenant_seed.to_le_bytes());
        let client = UserClient::new(
            user_image.measure(),
            sm_image.measure(),
            attestation.clone(),
            package.metadata(),
            KeyData::from_bytes(key_seed),
            &tenant_seed.to_le_bytes(),
        );

        let rpc_key_client = rpc_key_service.then(|| {
            crate::services::ManufacturerClient::new(fabric.clone(), names.host.clone())
                .with_service(names.manufacturer.clone())
        });

        TestBed {
            clock,
            fabric,
            cost: config.cost,
            platform,
            attestation,
            manufacturer,
            shell,
            package,
            cl_store,
            client,
            user_app,
            sm_app,
            sm_logic: None,
            host_reg: None,
            reg_links: None,
            partition,
            dram_window,
            names,
            advertised_dna_override: None,
            rpc_key_client,
        }
    }
}

/// One fully wired deployment.
pub struct TestBed {
    /// Shared virtual clock.
    pub clock: SimClock,
    /// Message fabric (channels between parties).
    pub fabric: RpcFabric,
    /// Operation cost model.
    pub cost: CostModel,
    /// The host's TEE platform.
    pub platform: SgxPlatform,
    /// The (trusted) attestation service.
    pub attestation: AttestationService,
    /// The manufacturer (factory + key server), shared with every other
    /// bed on the same platform.
    pub manufacturer: SharedManufacturer,
    /// The CSP shell managing the FPGA.
    pub shell: Shell,
    /// The developed CL package.
    pub package: ClPackage,
    /// Untrusted host storage holding the (plaintext) CL bitstream as
    /// uploaded; the SM enclave verifies it against `H` before use.
    pub cl_store: Vec<u8>,
    /// The data owner's client.
    pub client: UserClient,
    /// The user enclave application.
    pub user_app: UserApp,
    /// The SM enclave application.
    pub sm_app: SmApp,
    /// The SM logic handle, available after a successful boot.
    pub sm_logic: Option<SmLogic>,
    /// The host register-channel endpoint, available after boot.
    pub host_reg: Option<HostRegChannel>,
    /// The host→FPGA and FPGA→host links register traffic crosses,
    /// looked up on the first register op. Holding the handles is
    /// equivalent to looking them up per op: the fabric never drops a
    /// channel, and every clone shares its adversary and fault plane.
    reg_links: Option<(Channel, Channel)>,
    /// Target reconfigurable partition.
    pub partition: usize,
    /// The partition's private DRAM window. All session DMA and
    /// accelerator register offsets are relative to it; on a
    /// single-partition standalone bed it spans the whole DRAM.
    pub dram_window: DramWindow,
    /// The fabric endpoint names this deployment's parties answer on.
    pub names: EndpointNames,
    /// The DNA string the (untrusted) CSP advertises for the rented
    /// board. `None` means the CSP reports the true value; attacks set
    /// it to model a lying CSP.
    pub advertised_dna_override: Option<u64>,
    /// When set, [`key_service`](TestBed::key_service) returns this
    /// RPC stub instead of the in-process manufacturer, so key
    /// distribution crosses the fabric (and its fault plane).
    pub rpc_key_client: Option<crate::services::ManufacturerClient>,
}

impl std::fmt::Debug for TestBed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestBed")
            .field("booted", &self.sm_logic.is_some())
            .finish_non_exhaustive()
    }
}

impl TestBed {
    /// Provisions a full deployment from `config` (standalone world:
    /// private platform, legacy endpoint names, fresh device).
    ///
    /// # Panics
    ///
    /// Panics if the accelerator does not fit the configured geometry —
    /// a configuration error, not a runtime condition.
    pub fn provision(config: TestBedConfig) -> TestBed {
        TestBedBuilder::new(config).build()
    }

    /// A tiny zero-cost bed for examples and doc tests.
    pub fn quick_demo() -> TestBed {
        TestBed::provision(TestBedConfig::quick())
    }

    /// The paper-scale bed (U200 geometry, calibrated costs).
    pub fn paper_scale() -> TestBed {
        TestBed::provision(TestBedConfig::paper())
    }

    /// The key-distribution service this deployment's boot talks to,
    /// as an interface: the boot machine never sees the concrete
    /// manufacturer. RPC-backed beds (see
    /// [`TestBedBuilder::rpc_key_service`]) answer with the fabric
    /// stub; standalone beds call the manufacturer in-process.
    pub fn key_service(&mut self) -> &mut dyn KeyService {
        match self.rpc_key_client.as_mut() {
            Some(client) => client,
            None => &mut self.manufacturer,
        }
    }

    /// Performs a secure register write through the attested channel.
    ///
    /// # Errors
    ///
    /// State errors before boot; channel violations under attack.
    pub fn secure_reg_write(&mut self, addr: u32, value: u64) -> Result<(), crate::SalusError> {
        self.secure_reg_op(crate::reg_channel::RegisterOp::Write { addr, value })
            .map(|_| ())
    }

    /// Performs a secure register read through the attested channel.
    ///
    /// # Errors
    ///
    /// State errors before boot; channel violations under attack.
    pub fn secure_reg_read(&mut self, addr: u32) -> Result<u64, crate::SalusError> {
        self.secure_reg_op(crate::reg_channel::RegisterOp::Read { addr })
    }

    fn secure_reg_op(
        &mut self,
        op: crate::reg_channel::RegisterOp,
    ) -> Result<u64, crate::SalusError> {
        let host_reg = self
            .host_reg
            .as_mut()
            .ok_or(crate::SalusError::RegisterChannelViolation("not booted"))?;
        let logic = self
            .sm_logic
            .as_mut()
            .ok_or(crate::SalusError::SmLogicUnavailable("not booted"))?;
        let (to_fpga, to_host) = self.reg_links.get_or_insert_with(|| {
            let (host, fpga) = (&self.names.host, &self.names.fpga);
            (
                self.fabric.channel(host, fpga),
                self.fabric.channel(fpga, host),
            )
        });
        let sealed = host_reg.seal_op(op);

        // The transaction crosses the shell-controlled PCIe bus.
        let observed = to_fpga.transmit(&sealed.to_bytes())?;
        let observed = crate::reg_channel::SealedRegMsg::from_bytes(&observed)?;
        let response = logic.handle_register(&observed)?;

        let back = to_host.transmit(&response.to_bytes())?;
        let back = crate::reg_channel::SealedRegMsg::from_bytes(&back)?;
        host_reg.open_response(&back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provision_builds_consistent_bed() {
        let bed = TestBed::quick_demo();
        assert_eq!(bed.manufacturer.device_count(), 1);
        assert!(!bed.client.platform_attested());
        assert!(bed.sm_logic.is_none());
        assert_eq!(bed.cl_store, bed.package.compiled.wire);
        assert_eq!(bed.names, EndpointNames::legacy());
    }

    #[test]
    fn register_ops_before_boot_fail() {
        let mut bed = TestBed::quick_demo();
        assert!(bed.secure_reg_write(0, 1).is_err());
        assert!(bed.secure_reg_read(0).is_err());
    }

    #[test]
    fn provision_is_deterministic() {
        let a = TestBed::quick_demo();
        let b = TestBed::quick_demo();
        assert_eq!(a.package.digest, b.package.digest);
        assert_eq!(a.shell.advertised_dna(), b.shell.advertised_dna());
    }

    #[test]
    fn rpc_key_service_toggle_installs_fabric_stub() {
        let bed = TestBedBuilder::new(TestBedConfig::quick()).build();
        assert!(bed.rpc_key_client.is_none(), "in-process by default");
        let bed = TestBedBuilder::new(TestBedConfig::quick())
            .rpc_key_service(true)
            .build();
        assert!(bed.rpc_key_client.is_some());
    }

    #[test]
    fn tenant_names_scope_everything_but_shared_services() {
        let names = EndpointNames::tenant(3, "fleet.dev1.fpga");
        assert_eq!(names.client, "tenant3.client");
        assert_eq!(names.host, "tenant3.host");
        assert_eq!(names.fpga, "fleet.dev1.fpga");
        assert_eq!(names.manufacturer, endpoints::MANUFACTURER);
        assert_ne!(names, EndpointNames::tenant(4, "fleet.dev1.fpga"));
    }
}
