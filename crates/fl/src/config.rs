//! Shared federated-learning experiment configuration.

use crate::codec::CodecSpec;
use crate::faults::FaultPlan;
use fedclust_nn::models::ModelSpec;
use fedclust_nn::optim::SgdConfig;

/// Local SGD momentum (the paper's 0.9 for global models; the personalised
/// hand-over of Table 6 uses its own 0.5).
const MOMENTUM: f32 = 0.9;

/// The knobs shared by every FL method in a run.
///
/// The paper's setup is 100 clients, 10 % sampling, 200 rounds, 10 local
/// epochs, batch 10, SGD momentum 0.9. The reproduction's defaults are
/// scaled for a single-core CPU budget (see EXPERIMENTS.md); the paper
/// values remain reachable by setting the fields explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlConfig {
    /// Model architecture.
    pub model: ModelSpec,
    /// Number of communication rounds.
    pub rounds: usize,
    /// Fraction of clients sampled each round (paper: R = 0.1).
    pub sample_rate: f32,
    /// Local epochs per selected client per round (paper: 10).
    pub local_epochs: usize,
    /// Local minibatch size (paper: 10).
    pub batch_size: usize,
    /// Local SGD learning rate.
    pub lr: f32,
    /// Evaluate the average local test accuracy every this many rounds
    /// (and always at the final round).
    pub eval_every: usize,
    /// Root experiment seed.
    pub seed: u64,
    /// Probability that a sampled client drops out of the round before
    /// doing any work (unreliable-client simulation, paper §4.2). Dropped
    /// clients are treated as never contacted; at least one sampled client
    /// always survives.
    pub dropout_rate: f32,
    /// In-round fault model: link loss, stragglers vs. the round deadline,
    /// and update corruption. [`FaultPlan::none()`] (the default) keeps the
    /// run byte-identical to a fault-free engine.
    pub faults: FaultPlan,
    /// Upload compression codec applied by the transport to every client
    /// update. [`CodecSpec::none()`] (the default) keeps uploads
    /// byte-identical to the legacy uncompressed path.
    pub codec: CodecSpec,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            model: ModelSpec::LeNet5,
            rounds: 20,
            sample_rate: 0.2,
            local_epochs: 3,
            batch_size: 10,
            lr: 0.05,
            eval_every: 2,
            seed: 42,
            dropout_rate: 0.0,
            faults: FaultPlan::none(),
            codec: CodecSpec::none(),
        }
    }
}

impl FlConfig {
    /// Number of clients sampled each round for `num_clients` total
    /// (Algorithm 1 line 9: `n = max(R·N, 1)`).
    pub fn clients_per_round(&self, num_clients: usize) -> usize {
        ((self.sample_rate * num_clients as f32).round() as usize).clamp(1, num_clients)
    }

    /// SGD settings implied by this config.
    pub fn sgd(&self) -> SgdConfig {
        SgdConfig {
            lr: self.lr,
            momentum: MOMENTUM,
        }
    }

    /// Whether to run the (possibly expensive) all-client evaluation after
    /// round `round` (0-based).
    pub fn should_eval(&self, round: usize) -> bool {
        let every = self.eval_every.max(1);
        (round + 1).is_multiple_of(every) || round + 1 == self.rounds
    }

    /// A tiny configuration for unit/integration tests: MLP model, few
    /// rounds, everything small.
    pub fn tiny(seed: u64) -> Self {
        FlConfig {
            model: ModelSpec::Mlp { hidden: 16 },
            rounds: 3,
            sample_rate: 0.5,
            local_epochs: 2,
            batch_size: 8,
            lr: 0.1,
            eval_every: 1,
            seed,
            dropout_rate: 0.0,
            faults: FaultPlan::none(),
            codec: CodecSpec::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_per_round_respects_bounds() {
        let mut cfg = FlConfig {
            sample_rate: 0.1,
            ..FlConfig::default()
        };
        assert_eq!(cfg.clients_per_round(100), 10);
        assert_eq!(cfg.clients_per_round(5), 1);
        cfg.sample_rate = 1.0;
        assert_eq!(cfg.clients_per_round(7), 7);
        cfg.sample_rate = 0.0001;
        assert_eq!(cfg.clients_per_round(100), 1, "at least one client");
    }

    #[test]
    fn eval_schedule_hits_last_round() {
        let cfg = FlConfig {
            rounds: 7,
            eval_every: 3,
            ..FlConfig::default()
        };
        let evals: Vec<usize> = (0..7).filter(|&r| cfg.should_eval(r)).collect();
        assert_eq!(evals, vec![2, 5, 6]);
    }

    #[test]
    fn sgd_mirrors_config() {
        let cfg = FlConfig::default();
        let sgd = cfg.sgd();
        assert_eq!(sgd.lr, cfg.lr);
        assert_eq!(sgd.momentum, MOMENTUM);
    }
}
