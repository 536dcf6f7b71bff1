//! Scenario files: plain-text experiment descriptions.
//!
//! Reviewers and operators want experiments as versionable files, not shell
//! one-liners. A scenario file is deliberately minimal — `key = value`
//! lines, `#` comments — so it needs no external parser dependency:
//!
//! ```text
//! # headline point of Figure 5
//! workload   = kvs
//! policy     = ddio
//! ddio_ways  = 2
//! sweeper    = true
//! buffers    = 2048
//! packet     = 1088
//! channels   = 4
//! rate_mrps  = 20
//! ```
//!
//! [`Scenario::parse`] validates keys and values through
//! [`Scenario::set`], which the `sweeper` CLI also calls for each point flag
//! (`--ddio 4` sets `ddio_ways = 4`), so a file and the flags describe a
//! point the same way. [`Scenario::to_config`] produces the
//! [`ExperimentConfig`] for the CLI or a driver program.

use std::collections::BTreeMap;

use sweeper_sim::hierarchy::InjectionPolicy;

use crate::experiment::ExperimentConfig;
use crate::server::SweeperMode;

/// Which workload a scenario requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioWorkload {
    /// MICA-style key-value store.
    Kvs,
    /// L3 forwarder network function.
    L3fwd,
    /// The synthetic calibration workload.
    Synthetic,
}

impl ScenarioWorkload {
    /// The workload's scenario-file and CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Kvs => "kvs",
            Self::L3fwd => "l3fwd",
            Self::Synthetic => "synthetic",
        }
    }
}

/// A parsed scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Requested workload.
    pub workload: ScenarioWorkload,
    /// Injection policy.
    pub policy: InjectionPolicy,
    /// DDIO ways.
    pub ddio_ways: u32,
    /// Sweeper on/off.
    pub sweeper: SweeperMode,
    /// NIC-driven TX sweeping.
    pub tx_sweep: bool,
    /// The L3 forwarder transmits in place (ignored by other workloads).
    pub zero_copy: bool,
    /// RX ring entries per core per endpoint.
    pub buffers: usize,
    /// Endpoints per core.
    pub endpoints: usize,
    /// Packet size in bytes.
    pub packet: u64,
    /// DRAM channels.
    pub channels: usize,
    /// Active cores.
    pub cores: u16,
    /// RNG seed.
    pub seed: u64,
    /// Offered rate in Mrps (for `run`-style drivers).
    pub rate_mrps: f64,
}

impl Default for Scenario {
    fn default() -> Self {
        Self {
            workload: ScenarioWorkload::Kvs,
            policy: InjectionPolicy::Ddio,
            ddio_ways: 2,
            sweeper: SweeperMode::Disabled,
            tx_sweep: false,
            zero_copy: false,
            buffers: 1024,
            endpoints: 1,
            packet: 1088,
            channels: 4,
            cores: 24,
            seed: 0x5eed,
            rate_mrps: 20.0,
        }
    }
}

/// Error describing the offending line of a scenario file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// The default point under conventional DMA.
    pub fn dma() -> Self {
        Self {
            policy: InjectionPolicy::Dma,
            ..Self::default()
        }
    }

    /// The default point with DDIO in `ways` LLC ways.
    pub fn ddio(ways: u32) -> Self {
        Self {
            ddio_ways: ways,
            ..Self::default()
        }
    }

    /// The default point with DDIO in `ways` LLC ways plus Sweeper.
    pub fn ddio_sweeper(ways: u32) -> Self {
        Self {
            sweeper: SweeperMode::Enabled,
            ..Self::ddio(ways)
        }
    }

    /// The default point under the unrealistic infinite network cache.
    pub fn ideal() -> Self {
        Self {
            policy: InjectionPolicy::Ideal,
            ..Self::default()
        }
    }

    /// The system's legend label in the paper's figures: `DMA`,
    /// `Ideal DDIO`, or `DDIO <ways> Ways`, with ` + Sweeper` when on.
    pub fn label(&self) -> String {
        match self.policy {
            InjectionPolicy::Dma => "DMA".to_string(),
            InjectionPolicy::Ideal => "Ideal DDIO".to_string(),
            InjectionPolicy::Ddio => {
                format!("DDIO {} Ways{}", self.ddio_ways, self.sweeper.suffix())
            }
        }
    }

    /// Warmup requests that wrap every RX ring 1.2 times (cores × endpoints
    /// × buffers × 1.2), so the steady-state buffer churn under study is in
    /// effect when measurement starts. The floor is physics, not budget:
    /// every run length of a scenario applies it.
    pub fn ring_warmup(&self) -> u64 {
        (self.cores as u64 * self.endpoints as u64 * self.buffers as u64 * 12) / 10
    }

    /// Parses `key = value` text.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line: unknown key, missing `=`, bad
    /// value, or out-of-range number.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut s = Scenario::default();
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let err = |message: String| ScenarioError {
                line: line_no,
                message,
            };
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err("expected 'key = value'".into()))?;
            let key = key.trim();
            let value = value.trim();
            if let Some(first) = seen.insert(key.to_string(), line_no) {
                return Err(err(format!("duplicate key '{key}' (first at line {first})")));
            }
            s.set(key, value).map_err(err)?;
        }
        Ok(s)
    }

    /// Sets one key from its text value — the single place a scenario key
    /// is validated, shared by [`parse`](Self::parse) and the CLI's point
    /// flags.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown key, a bad value, or an
    /// out-of-range number.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "workload" => {
                self.workload = match value {
                    "kvs" => ScenarioWorkload::Kvs,
                    "l3fwd" => ScenarioWorkload::L3fwd,
                    "synthetic" => ScenarioWorkload::Synthetic,
                    other => return Err(format!("unknown workload '{other}'")),
                }
            }
            "policy" => {
                self.policy = match value {
                    "dma" => InjectionPolicy::Dma,
                    "ddio" => InjectionPolicy::Ddio,
                    "ideal" => InjectionPolicy::Ideal,
                    other => return Err(format!("unknown policy '{other}'")),
                }
            }
            "sweeper" => {
                self.sweeper = match parse_bool(value)? {
                    true => SweeperMode::Enabled,
                    false => SweeperMode::Disabled,
                }
            }
            "tx_sweep" => self.tx_sweep = parse_bool(value)?,
            "zero_copy" => self.zero_copy = parse_bool(value)?,
            "ddio_ways" => self.ddio_ways = parse_num(value, 1, 12)? as u32,
            "buffers" => self.buffers = parse_num(value, 1, 1 << 20)? as usize,
            "endpoints" => self.endpoints = parse_num(value, 1, 4096)? as usize,
            "packet" => self.packet = parse_num(value, 64, 1 << 16)?,
            "channels" => self.channels = parse_num(value, 1, 16)? as usize,
            "cores" => self.cores = parse_num(value, 1, 64)? as u16,
            "seed" => self.seed = parse_num(value, 0, u64::MAX)?,
            "rate_mrps" => {
                self.rate_mrps = value
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .ok_or_else(|| format!("invalid rate '{value}'"))?
            }
            other => return Err(format!("unknown key '{other}'")),
        }
        Ok(())
    }

    /// Builds the experiment configuration this scenario describes (run
    /// lengths are the caller's choice).
    pub fn to_config(&self) -> ExperimentConfig {
        ExperimentConfig::paper_default()
            .injection(self.policy)
            .ddio_ways(self.ddio_ways)
            .sweeper(self.sweeper)
            .tx_sweep(self.tx_sweep)
            .rx_buffers_per_core(self.buffers)
            .endpoints_per_core(self.endpoints)
            .packet_bytes(self.packet)
            .channels(self.channels)
            .active_cores(self.cores)
            .seed(self.seed)
    }

    /// Renders the scenario back to parseable text (round-trips through
    /// [`parse`](Self::parse)).
    pub fn to_text(&self) -> String {
        let workload = self.workload.name();
        let policy = match self.policy {
            InjectionPolicy::Dma => "dma",
            InjectionPolicy::Ddio => "ddio",
            InjectionPolicy::Ideal => "ideal",
        };
        format!(
            "workload = {workload}\npolicy = {policy}\nddio_ways = {}\nsweeper = {}\n\
             tx_sweep = {}\nzero_copy = {}\nbuffers = {}\nendpoints = {}\npacket = {}\n\
             channels = {}\ncores = {}\nseed = {}\nrate_mrps = {}\n",
            self.ddio_ways,
            self.sweeper.is_enabled(),
            self.tx_sweep,
            self.zero_copy,
            self.buffers,
            self.endpoints,
            self.packet,
            self.channels,
            self.cores,
            self.seed,
            self.rate_mrps,
        )
    }
}

fn parse_bool(value: &str) -> Result<bool, String> {
    match value {
        "true" | "yes" | "on" | "1" => Ok(true),
        "false" | "no" | "off" | "0" => Ok(false),
        other => Err(format!("expected a boolean, got '{other}'")),
    }
}

fn parse_num(value: &str, min: u64, max: u64) -> Result<u64, String> {
    let n: u64 = value
        .parse()
        .map_err(|_| format!("invalid number '{value}'"))?;
    if n < min || n > max {
        return Err(format!("{n} outside [{min}, {max}]"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_scenario() {
        let text = "\
            # headline point\n\
            workload = l3fwd\n\
            policy = ideal   # with a trailing comment\n\
            ddio_ways = 6\n\
            sweeper = yes\n\
            buffers = 2048\n\
            packet = 1024\n\
            channels = 3\n\
            cores = 12\n\
            rate_mrps = 35.5\n";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.workload, ScenarioWorkload::L3fwd);
        assert_eq!(s.policy, InjectionPolicy::Ideal);
        assert_eq!(s.ddio_ways, 6);
        assert_eq!(s.sweeper, SweeperMode::Enabled);
        assert_eq!(s.buffers, 2048);
        assert_eq!(s.channels, 3);
        assert_eq!(s.cores, 12);
        assert!((s.rate_mrps - 35.5).abs() < 1e-9);
        // Unspecified keys keep defaults.
        assert_eq!(s.endpoints, 1);
        assert_eq!(s.seed, 0x5eed);
    }

    #[test]
    fn empty_text_is_the_default_scenario() {
        assert_eq!(Scenario::parse("").unwrap(), Scenario::default());
        assert_eq!(Scenario::parse("# only comments\n\n").unwrap(), Scenario::default());
    }

    #[test]
    fn round_trips_through_text() {
        let s = Scenario {
            workload: ScenarioWorkload::Synthetic,
            sweeper: SweeperMode::Enabled,
            zero_copy: true,
            buffers: 777,
            rate_mrps: 12.25,
            ..Scenario::default()
        };
        let reparsed = Scenario::parse(&s.to_text()).unwrap();
        assert_eq!(reparsed, s);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Scenario::dma().label(), "DMA");
        assert_eq!(Scenario::ddio(4).label(), "DDIO 4 Ways");
        assert_eq!(Scenario::ddio_sweeper(2).label(), "DDIO 2 Ways + Sweeper");
        assert_eq!(Scenario::ideal().label(), "Ideal DDIO");
    }

    #[test]
    fn ring_warmup_wraps_every_ring() {
        let s = Scenario::parse("cores = 4\nendpoints = 3\nbuffers = 100\n").unwrap();
        assert_eq!(s.ring_warmup(), 1440);
    }

    #[test]
    fn reports_the_offending_line() {
        let err = Scenario::parse("workload = kvs\nbogus = 1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown key"));
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_out_of_range_and_duplicates() {
        let err = Scenario::parse("ddio_ways = 13\n").unwrap_err();
        assert!(err.message.contains("outside"));
        let err = Scenario::parse("buffers = 64\nbuffers = 128\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
        let err = Scenario::parse("rate_mrps = -3\n").unwrap_err();
        assert!(err.message.contains("invalid rate"));
        let err = Scenario::parse("no-equals-here\n").unwrap_err();
        assert!(err.message.contains("key = value"));
    }

    #[test]
    fn to_config_applies_every_knob() {
        let s = Scenario::parse(
            "policy = dma\nddio_ways = 4\nbuffers = 256\nendpoints = 8\npacket = 512\n\
             channels = 8\ncores = 6\nseed = 42\n",
        )
        .unwrap();
        let cfg = s.to_config();
        assert_eq!(cfg.machine().injection, InjectionPolicy::Dma);
        assert_eq!(cfg.machine().ddio_ways, 4);
        assert_eq!(cfg.machine().dram.channels, 8);
        assert_eq!(cfg.server_config().rx_entries, 256);
        assert_eq!(cfg.server_config().endpoints_per_core, 8);
        assert_eq!(cfg.server_config().packet_bytes, 512);
        assert_eq!(cfg.server_config().active_cores, 6);
        assert_eq!(cfg.server_config().seed, 42);
        // 6 cores x 8 endpoints x 256 entries x 1024B entries.
        assert_eq!(cfg.rx_footprint_bytes(), 6 * 8 * 256 * 1024);
    }
}
