//! Reproduction-scale experiment settings.
//!
//! The paper runs 100 clients / 10 % sampling / 200 rounds / 10 local
//! epochs on a GPU server. This reproduction's benchmarks default to a
//! single-CPU-core budget; EXPERIMENTS.md lists both parameter sets side
//! by side. `FEDCLUST_FAST=1` shrinks everything further for smoke tests.

use fedclust_data::federated::FederatedConfig;
use fedclust_data::DatasetProfile;
use fedclust_fl::FlConfig;
use fedclust_nn::models::ModelSpec;

/// Scale profile for one dataset's experiments.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Dataset build settings.
    pub federated: FederatedConfig,
    /// FL loop settings.
    pub fl: FlConfig,
}

/// The harness's two environment knobs, checked once where they enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// `FEDCLUST_FAST=1`: smoke scale (10 clients, 2–3 rounds).
    pub fast: bool,
    /// `FEDCLUST_SEEDS=n`: runs per cell for mean ± std (paper: 3).
    /// Default 2, or 1 at smoke scale.
    pub seeds: usize,
}

impl Knobs {
    /// Both knobs from the environment. A value that is set but not
    /// understood is never a silent default: the message naming it goes to
    /// stderr and the process exits with status 2.
    pub fn from_env_or_exit() -> Knobs {
        // Lossy, because a value that is not unicode spells neither `0`, `1`
        // nor a count: `parse` rejects what is left of it by name.
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        let knobs = Knobs::parse(
            var("FEDCLUST_FAST").as_deref(),
            var("FEDCLUST_SEEDS").as_deref(),
        );
        knobs.unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// The knobs for the given values (`None` = unset).
    pub fn parse(fast: Option<&str>, seeds: Option<&str>) -> Result<Knobs, String> {
        let fast = match fast {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("FEDCLUST_FAST={v}: expected 0 or 1")),
        };
        let seeds = match seeds {
            None => 2 - usize::from(fast),
            Some(v) => match v.parse() {
                Ok(n) if n > 0 => n,
                _ => {
                    return Err(format!(
                        "FEDCLUST_SEEDS={v}: expected a count of at least 1"
                    ))
                }
            },
        };
        Ok(Knobs { fast, seeds })
    }

    /// The seeds every cell is run at: 42, 1042, 2042, …
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.seeds as u64).map(|i| 42 + 1000 * i).collect()
    }

    /// The benchmark scale for one dataset profile.
    pub fn scale(&self, profile: DatasetProfile, seed: u64) -> Scale {
        let f = self.fast;
        match profile {
            DatasetProfile::Cifar100Like => Scale {
                // ResNet-9 is ~10× a LeNet step, so the CIFAR-100 column
                // runs fewer, smaller rounds.
                federated: FederatedConfig {
                    num_clients: if f { 10 } else { 40 },
                    samples_per_class: if f { 20 } else { 50 },
                    seed,
                },
                fl: FlConfig {
                    model: ModelSpec::ResNet9,
                    rounds: if f { 2 } else { 20 },
                    sample_rate: 0.25,
                    local_epochs: 3,
                    seed,
                    ..FlConfig::default()
                },
            },
            _ => Scale {
                federated: FederatedConfig {
                    num_clients: if f { 10 } else { 50 },
                    samples_per_class: if f { 20 } else { 120 },
                    seed,
                },
                fl: FlConfig {
                    model: ModelSpec::LeNet5,
                    rounds: if f { 3 } else { 24 },
                    sample_rate: 0.2,
                    local_epochs: if f { 1 } else { 3 },
                    seed,
                    ..FlConfig::default()
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knobs_take_the_documented_defaults() {
        let full = Knobs {
            fast: false,
            seeds: 2,
        };
        assert_eq!(Knobs::parse(None, None), Ok(full));
        assert_eq!(Knobs::parse(Some("0"), None), Ok(full));
        assert_eq!(
            Knobs::parse(Some("1"), None),
            Ok(Knobs {
                fast: true,
                seeds: 1
            })
        );
        assert_eq!(
            Knobs::parse(Some("1"), Some("3")),
            Ok(Knobs {
                fast: true,
                seeds: 3
            })
        );
        assert_eq!(
            Knobs {
                fast: false,
                seeds: 3
            }
            .seeds(),
            vec![42, 1042, 2042]
        );
    }

    #[test]
    fn a_knob_that_is_set_but_not_understood_is_an_error_naming_it() {
        for fast in ["true", "yes", "", "2", " 1"] {
            let err = Knobs::parse(Some(fast), None).unwrap_err();
            assert!(err.contains(&format!("FEDCLUST_FAST={fast}")), "{err}");
        }
        for seeds in ["0", "-1", "two", "", "1.5"] {
            let err = Knobs::parse(None, Some(seeds)).unwrap_err();
            assert!(err.contains(&format!("FEDCLUST_SEEDS={seeds}")), "{err}");
        }
    }
}
