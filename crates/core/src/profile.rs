//! Run-length profiles: how much simulated work an evaluation spends.
//!
//! The profile is parsed **once**, from the `sweeper` CLI's `--profile`
//! flag, and threaded explicitly through the figure registry, the fleet
//! runner, and the CLI.
//!
//! * [`RunProfile::Full`] — paper-fidelity run lengths (default),
//! * [`RunProfile::Fast`] — quartered measurement windows for CI smokes,
//! * [`RunProfile::Smoke`] — minimal windows that only prove the plumbing;
//!   used to size long-running tests so `cargo test -q` stays quick.

use std::fmt;
use std::str::FromStr;

/// How long the evaluation's simulation windows run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RunProfile {
    /// Paper-fidelity run lengths.
    #[default]
    Full,
    /// Quartered windows for a quick CI pass.
    Fast,
    /// Minimal windows for unit/integration tests.
    Smoke,
}

impl RunProfile {
    /// Divisor applied to measurement windows relative to [`RunProfile::Full`].
    pub fn window_divisor(self) -> u64 {
        match self {
            Self::Full => 1,
            Self::Fast => 4,
            Self::Smoke => 24,
        }
    }

    /// Scales a [`RunProfile::Full`]-sized quantity down, keeping `floor`.
    pub fn scale(self, full_value: u64, floor: u64) -> u64 {
        (full_value / self.window_divisor()).max(floor)
    }

    /// The profile's canonical name (`full` / `fast` / `smoke`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::Fast => "fast",
            Self::Smoke => "smoke",
        }
    }
}

impl fmt::Display for RunProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RunProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Ok(Self::Full),
            "fast" => Ok(Self::Fast),
            "smoke" => Ok(Self::Smoke),
            other => Err(format!(
                "unknown profile '{other}' (expected full, fast, or smoke)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_round_trips() {
        for p in [RunProfile::Full, RunProfile::Fast, RunProfile::Smoke] {
            assert_eq!(p.name().parse::<RunProfile>().unwrap(), p);
            assert_eq!(p.name().to_uppercase().parse::<RunProfile>().unwrap(), p);
        }
        assert!("turbo".parse::<RunProfile>().is_err());
    }

    #[test]
    fn scaling_respects_floor_and_order() {
        assert_eq!(RunProfile::Full.scale(30_000, 100), 30_000);
        assert_eq!(RunProfile::Fast.scale(30_000, 100), 7_500);
        assert_eq!(RunProfile::Smoke.scale(30_000, 100), 1_250);
        assert_eq!(RunProfile::Smoke.scale(1_000, 500), 500);
        assert!(RunProfile::Fast.window_divisor() < RunProfile::Smoke.window_divisor());
    }
}
