//! Instance flavors (VM) and node types (bare metal / edge).
//!
//! The catalog mirrors the Chameleon node types and KVM flavors named in
//! Table 1 of the paper, plus the generic VM flavors used by project work.
//! Resource figures for the `m1.*` flavors come from §3 of the paper
//! (m1.small minimal; m1.medium 2 vCPU / 4 GB; m1.large 4 vCPU / 8 GB);
//! bare-metal node shapes are representative of the corresponding Chameleon
//! hardware classes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// GPU hardware classes present on the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuModel {
    /// NVIDIA A100 80 GB (CUDA compute capability 8.0; bfloat16-capable).
    A100_80GB,
    /// NVIDIA V100 (compute capability 7.0).
    V100,
    /// AMD Instinct MI100.
    MI100,
    /// NVIDIA P100.
    P100,
    /// NVIDIA A30 (serving-class, compute capability 8.0).
    A30,
    /// NVIDIA RTX 6000 (project work).
    Rtx6000,
}

impl GpuModel {
    /// Whether this GPU supports bfloat16 reduced-precision training
    /// (compute capability ≥ 8.0) — required by the Unit 4 lab.
    pub fn supports_bf16(self) -> bool {
        matches!(self, GpuModel::A100_80GB | GpuModel::A30)
    }

    /// Device memory in GB.
    pub fn memory_gb(self) -> u32 {
        match self {
            GpuModel::A100_80GB => 80,
            GpuModel::V100 => 32,
            GpuModel::MI100 => 32,
            GpuModel::P100 => 16,
            GpuModel::A30 => 24,
            GpuModel::Rtx6000 => 24,
        }
    }
}

/// Where a flavor can be provisioned, which determines its lifecycle rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SiteKind {
    /// On-demand virtual machines (KVM\@TACC): no advance reservation,
    /// **no automatic termination** — instances run until deleted.
    Vm,
    /// Bare-metal nodes: advance reservation required; auto-terminated at
    /// lease end.
    BareMetal,
    /// CHI\@Edge devices (Raspberry Pi 5, Jetson): reservation required;
    /// auto-terminated at lease end.
    Edge,
}

/// Every instance flavor / node type used by the course.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FlavorId {
    /// Minimal VM (Unit 1 onboarding).
    M1Small,
    /// 2 vCPU / 4 GB VM (Units 2, 3, 7; the workhorse flavor).
    M1Medium,
    /// 4 vCPU / 8 GB VM (Unit 8; project work).
    M1Large,
    /// 8 vCPU / 16 GB VM (project work only).
    M1Xlarge,
    /// Bare-metal node with 4× A100 80 GB PCIe (Unit 4 multi-GPU).
    GpuA100Pcie,
    /// Bare-metal node with 4× V100 (Unit 4 multi-GPU overflow pool).
    GpuV100,
    /// GigaIO composable node with 1× A100 80 GB (Units 4, 5, 6).
    ComputeGigaio,
    /// Liqid composable node with 1× A100 40 GB-class GPU (Units 5, 6).
    ComputeLiqid,
    /// Liqid composable node composed with 2 GPUs (Unit 5 multi-GPU).
    ComputeLiqid2,
    /// Bare-metal node with 2× AMD MI100 (Unit 5 multi-GPU).
    GpuMi100,
    /// Bare-metal node with 2× P100 (Unit 6 system-serving optimizations).
    GpuP100,
    /// Raspberry Pi 5 on CHI\@Edge (Unit 6 edge serving). The course staff
    /// added 7 of these to the platform (§4).
    RaspberryPi5,
    /// Bare-metal CPU node (Cascade Lake class) used by projects for
    /// large-scale data processing (§5: 975 bare-metal non-GPU hours).
    ComputeCascadeLake,
}

/// Static description of a flavor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlavorSpec {
    /// Canonical flavor/node-type name as it appears in Table 1.
    pub name: &'static str,
    /// Virtual or physical CPU cores.
    pub vcpus: u32,
    /// Memory in GB.
    pub ram_gb: u32,
    /// Number of GPUs on the node (0 for CPU-only).
    pub gpu_count: u32,
    /// GPU hardware class, if any.
    pub gpu_model: Option<GpuModel>,
    /// Site the flavor lives on, which fixes its lifecycle rules.
    pub site: SiteKind,
}

impl FlavorId {
    /// All flavors, in a stable order (used for reports and iteration).
    pub const ALL: [FlavorId; 13] = [
        FlavorId::M1Small,
        FlavorId::M1Medium,
        FlavorId::M1Large,
        FlavorId::M1Xlarge,
        FlavorId::GpuA100Pcie,
        FlavorId::GpuV100,
        FlavorId::ComputeGigaio,
        FlavorId::ComputeLiqid,
        FlavorId::ComputeLiqid2,
        FlavorId::GpuMi100,
        FlavorId::GpuP100,
        FlavorId::RaspberryPi5,
        FlavorId::ComputeCascadeLake,
    ];

    /// The static spec for this flavor.
    pub const fn spec(self) -> FlavorSpec {
        match self {
            FlavorId::M1Small => FlavorSpec {
                name: "m1.small",
                vcpus: 1,
                ram_gb: 2,
                gpu_count: 0,
                gpu_model: None,
                site: SiteKind::Vm,
            },
            FlavorId::M1Medium => FlavorSpec {
                name: "m1.medium",
                vcpus: 2,
                ram_gb: 4,
                gpu_count: 0,
                gpu_model: None,
                site: SiteKind::Vm,
            },
            FlavorId::M1Large => FlavorSpec {
                name: "m1.large",
                vcpus: 4,
                ram_gb: 8,
                gpu_count: 0,
                gpu_model: None,
                site: SiteKind::Vm,
            },
            FlavorId::M1Xlarge => FlavorSpec {
                name: "m1.xlarge",
                vcpus: 8,
                ram_gb: 16,
                gpu_count: 0,
                gpu_model: None,
                site: SiteKind::Vm,
            },
            FlavorId::GpuA100Pcie => FlavorSpec {
                name: "gpu_a100_pcie",
                vcpus: 64,
                ram_gb: 512,
                gpu_count: 4,
                gpu_model: Some(GpuModel::A100_80GB),
                site: SiteKind::BareMetal,
            },
            FlavorId::GpuV100 => FlavorSpec {
                name: "gpu_v100",
                vcpus: 40,
                ram_gb: 384,
                gpu_count: 4,
                gpu_model: Some(GpuModel::V100),
                site: SiteKind::BareMetal,
            },
            FlavorId::ComputeGigaio => FlavorSpec {
                name: "compute_gigaio",
                vcpus: 32,
                ram_gb: 256,
                gpu_count: 1,
                gpu_model: Some(GpuModel::A100_80GB),
                site: SiteKind::BareMetal,
            },
            FlavorId::ComputeLiqid => FlavorSpec {
                name: "compute_liqid",
                vcpus: 32,
                ram_gb: 192,
                gpu_count: 1,
                gpu_model: Some(GpuModel::A100_80GB),
                site: SiteKind::BareMetal,
            },
            FlavorId::ComputeLiqid2 => FlavorSpec {
                name: "compute_liqid_2",
                vcpus: 32,
                ram_gb: 192,
                gpu_count: 2,
                gpu_model: Some(GpuModel::A100_80GB),
                site: SiteKind::BareMetal,
            },
            FlavorId::GpuMi100 => FlavorSpec {
                name: "gpu_mi100",
                vcpus: 48,
                ram_gb: 256,
                gpu_count: 2,
                gpu_model: Some(GpuModel::MI100),
                site: SiteKind::BareMetal,
            },
            FlavorId::GpuP100 => FlavorSpec {
                name: "gpu_p100",
                vcpus: 28,
                ram_gb: 128,
                gpu_count: 2,
                gpu_model: Some(GpuModel::P100),
                site: SiteKind::BareMetal,
            },
            FlavorId::RaspberryPi5 => FlavorSpec {
                name: "raspberrypi5",
                vcpus: 4,
                ram_gb: 8,
                gpu_count: 0,
                gpu_model: None,
                site: SiteKind::Edge,
            },
            FlavorId::ComputeCascadeLake => FlavorSpec {
                name: "compute_cascadelake_r",
                vcpus: 48,
                ram_gb: 192,
                gpu_count: 0,
                gpu_model: None,
                site: SiteKind::BareMetal,
            },
        }
    }

    /// The flavor's canonical name (Table 1 spelling).
    pub const fn name(self) -> &'static str {
        self.spec().name
    }

    /// Site kind (fixes lifecycle: VM = run-until-deleted, others leased).
    pub const fn site(self) -> SiteKind {
        self.spec().site
    }

    /// Whether provisioning this flavor requires an advance reservation.
    pub const fn requires_lease(self) -> bool {
        !matches!(self.spec().site, SiteKind::Vm)
    }

    /// Whether the node carries at least one GPU.
    pub const fn has_gpu(self) -> bool {
        self.spec().gpu_count > 0
    }
}

impl fmt::Display for FlavorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = FlavorId::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FlavorId::ALL.len());
    }

    #[test]
    fn lifecycle_rules_match_paper() {
        // VMs are on-demand; bare metal and edge require reservations.
        assert!(!FlavorId::M1Medium.requires_lease());
        assert!(FlavorId::GpuA100Pcie.requires_lease());
        assert!(FlavorId::RaspberryPi5.requires_lease());
    }

    #[test]
    fn unit4_gpu_requirements() {
        // §3.4: the single-GPU part needs CC >= 8.0 (bf16) and ~80 GB memory.
        let gigaio = FlavorId::ComputeGigaio.spec();
        let gpu = gigaio.gpu_model.unwrap();
        assert!(gpu.supports_bf16());
        assert!(gpu.memory_gb() >= 80);
        // The multi-GPU part needs >= 4 such GPUs on one node.
        assert_eq!(FlavorId::GpuA100Pcie.spec().gpu_count, 4);
        assert_eq!(FlavorId::GpuV100.spec().gpu_count, 4);
        // V100 (CC 7.0) does NOT support bf16 — the lab text allows it only
        // as an overflow pool where students fall back to fp16.
        assert!(!GpuModel::V100.supports_bf16());
    }

    #[test]
    fn vm_flavor_shapes_match_section3() {
        let m = FlavorId::M1Medium.spec();
        assert_eq!((m.vcpus, m.ram_gb), (2, 4)); // §3.2
        let l = FlavorId::M1Large.spec();
        assert_eq!((l.vcpus, l.ram_gb), (4, 8)); // §3.8
    }

    #[test]
    fn table1_flavor_names_present() {
        let names: Vec<&str> = FlavorId::ALL.iter().map(|f| f.name()).collect();
        for name in [
            "m1.small",
            "m1.medium",
            "gpu_a100_pcie",
            "gpu_v100",
            "compute_gigaio",
            "compute_liqid_2",
            "gpu_mi100",
            "compute_liqid",
            "raspberrypi5",
            "gpu_p100",
            "m1.large",
        ] {
            assert!(names.contains(&name), "missing {name}");
        }
    }
}
