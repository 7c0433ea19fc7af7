//! Configuration presets.

use topics_crawler::campaign::{AllowListSetup, CampaignConfig};
use topics_net::fault::FaultProfile;
use topics_webgen::WorldConfig;

/// Everything needed to run one lab session: the world to generate and
/// the campaign to run against it.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// The synthetic web.
    pub world: WorldConfig,
    /// The crawl.
    pub campaign: CampaignConfig,
}

impl LabConfig {
    /// The paper's setup at full scale: 50,000 sites, the allow-list
    /// corrupted on purpose, Before/After-Accept protocol.
    pub fn paper(seed: u64) -> LabConfig {
        LabConfig {
            world: WorldConfig::paper(seed),
            campaign: CampaignConfig::default(),
        }
    }

    /// A scaled-down session (same behaviour rates, fewer sites) for
    /// tests, examples and quick iterations.
    pub fn quick(seed: u64, num_sites: usize) -> LabConfig {
        LabConfig {
            world: WorldConfig::scaled(seed, num_sites),
            campaign: CampaignConfig::default(),
        }
    }

    /// Switch the allow-list setup (e.g. the fixed-browser ablation).
    #[must_use]
    pub fn with_allow_list(mut self, setup: AllowListSetup) -> LabConfig {
        self.campaign.allow_list = setup;
        self
    }

    /// Limit the crawl and probe worker threads (CLI `--threads`); the
    /// campaign is byte-identical for every value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> LabConfig {
        self.campaign.threads = threads.max(1);
        self
    }

    /// Memoise attestation-probe results across campaigns in this
    /// process (benches and ablation sweeps re-run the same world).
    #[must_use]
    pub fn with_probe_cache(mut self) -> LabConfig {
        self.campaign.probe_cache = true;
        self
    }

    /// Inject network faults at the given profile (CLI
    /// `--fault-profile`). The default is [`FaultProfile::off`], which
    /// leaves the campaign byte-identical to a fault-free build.
    #[must_use]
    pub fn with_fault_profile(mut self, profile: FaultProfile) -> LabConfig {
        self.campaign.fault = profile;
        self
    }

    /// Pin the fault-plan seed (CLI `--fault-seed`) instead of deriving
    /// it from the world seed — lets two runs share a world but differ
    /// in where faults land.
    #[must_use]
    pub fn with_fault_seed(mut self, fault_seed: u64) -> LabConfig {
        self.campaign.fault_seed = Some(fault_seed);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_is_full_scale_and_corrupted() {
        let c = LabConfig::paper(1);
        assert_eq!(c.world.num_sites, 50_000);
        assert_eq!(c.campaign.allow_list, AllowListSetup::CorruptedFailOpen);
    }

    #[test]
    fn builders_modify_only_their_field() {
        let c = LabConfig::quick(1, 100)
            .with_allow_list(AllowListSetup::Healthy)
            .with_threads(0);
        assert_eq!(c.world.num_sites, 100);
        assert_eq!(c.campaign.allow_list, AllowListSetup::Healthy);
        assert_eq!(c.campaign.threads, 1, "clamped to ≥1");
    }

    #[test]
    fn probe_builders_configure_the_campaign() {
        let c = LabConfig::quick(1, 100);
        assert!(!c.campaign.probe_cache, "cache defaults off");
        assert!(c.with_probe_cache().campaign.probe_cache);
    }

    #[test]
    fn fault_builders_configure_the_campaign() {
        let c = LabConfig::quick(1, 100);
        assert!(c.campaign.fault.is_off(), "faults default to off");
        assert_eq!(c.campaign.fault_seed, None);
        let c = c
            .with_fault_profile(FaultProfile::light())
            .with_fault_seed(99);
        assert_eq!(c.campaign.fault, FaultProfile::light());
        assert_eq!(c.campaign.fault_seed, Some(99));
        assert!(c.campaign.fault_plan(1).is_active());
    }
}
