//! Non-IID partitioners: how a pooled dataset is split across clients.
//!
//! Implements the three heterogeneity settings of the paper's evaluation
//! (following Li et al., "Federated learning on non-IID data silos"):
//!
//! * **IID** — every client draws uniformly from all classes,
//! * **label-skew (δ%)** — each client holds ⌈δ·L⌉ of the L labels; the
//!   samples of each label are split evenly among its owners,
//! * **Dirichlet (α)** — per class, client shares are drawn from
//!   `Dir(α)`; small α concentrates each class on few clients.

use rand::seq::SliceRandom;
use rand::Rng;

/// A partitioning strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Partition {
    /// Uniform IID split.
    Iid,
    /// Non-IID label skew: each client owns `fraction` of all labels.
    LabelSkew {
        /// Fraction of the label space each client holds (e.g. 0.2).
        fraction: f32,
    },
    /// Non-IID Dirichlet label skew with concentration `alpha`.
    Dirichlet {
        /// Dirichlet concentration (e.g. 0.1). Smaller = more skewed.
        alpha: f32,
    },
}

impl Partition {
    /// Short tag used in experiment output.
    pub fn tag(&self) -> String {
        match self {
            Partition::Iid => "iid".to_string(),
            Partition::LabelSkew { fraction } => {
                format!("skew{}", (fraction * 100.0).round() as u32)
            }
            Partition::Dirichlet { alpha } => format!("dir{}", alpha),
        }
    }

    /// Assign pooled sample indices to `num_clients` clients.
    ///
    /// `labels` is the pooled label vector; `num_classes` the class count.
    /// Returns one index list per client. Every client is guaranteed at
    /// least one sample (skewed draws are repaired by stealing from the
    /// richest client).
    pub fn assign(
        &self,
        labels: &[usize],
        num_classes: usize,
        num_clients: usize,
        rng: &mut impl Rng,
    ) -> Vec<Vec<usize>> {
        assert!(num_clients > 0, "need at least one client");
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
        for (i, &l) in labels.iter().enumerate() {
            assert!(l < num_classes, "label {} out of range", l);
            by_class[l].push(i);
        }
        let mut assignment = match self {
            Partition::Iid => iid(labels.len(), num_clients, rng),
            Partition::LabelSkew { fraction } => label_skew(&by_class, *fraction, num_clients, rng),
            Partition::Dirichlet { alpha } => dirichlet(&by_class, *alpha, num_clients, rng),
        };
        repair_empty_clients(&mut assignment, rng);
        assignment
    }
}

fn iid(n: usize, num_clients: usize, rng: &mut impl Rng) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let mut out = vec![Vec::new(); num_clients];
    for (i, sample) in idx.into_iter().enumerate() {
        out[i % num_clients].push(sample);
    }
    out
}

/// The paper's label-skew scheme: assign each client ⌈δ·L⌉ random labels
/// (ensuring every label has at least one owner), then split each label's
/// samples evenly among its owners.
fn label_skew(
    by_class: &[Vec<usize>],
    fraction: f32,
    num_clients: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<usize>> {
    let num_classes = by_class.len();
    let labels_per_client = ((fraction * num_classes as f32).ceil() as usize).clamp(1, num_classes);

    // Each client picks its label set.
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); num_classes]; // label -> clients
    let mut client_labels: Vec<Vec<usize>> = Vec::with_capacity(num_clients);
    let mut all_labels: Vec<usize> = (0..num_classes).collect();
    for c in 0..num_clients {
        all_labels.shuffle(rng);
        let chosen: Vec<usize> = all_labels[..labels_per_client].to_vec();
        for &l in &chosen {
            owners[l].push(c);
        }
        client_labels.push(chosen);
    }
    // Ensure every label has an owner: give orphan labels to random clients
    // (replacing one of their labels' share is unnecessary; they just gain
    // an extra label, which matches the reference implementation's repair).
    for (l, own) in owners.iter_mut().enumerate() {
        if own.is_empty() {
            let c = rng.gen_range(0..num_clients);
            own.push(c);
            client_labels[c].push(l);
        }
    }

    // Split each label's samples evenly among its owners.
    let mut out = vec![Vec::new(); num_clients];
    for (l, samples) in by_class.iter().enumerate() {
        let own = &owners[l];
        if own.is_empty() || samples.is_empty() {
            continue;
        }
        let mut shuffled = samples.clone();
        shuffled.shuffle(rng);
        for (i, &s) in shuffled.iter().enumerate() {
            out[own[i % own.len()]].push(s);
        }
    }
    out
}

/// Dirichlet label skew: per class, draw client shares from `Dir(alpha)`.
fn dirichlet(
    by_class: &[Vec<usize>],
    alpha: f32,
    num_clients: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<usize>> {
    assert!(alpha > 0.0, "Dirichlet alpha must be positive");
    let mut out = vec![Vec::new(); num_clients];
    for samples in by_class {
        if samples.is_empty() {
            continue;
        }
        let props = dirichlet_sample(alpha, num_clients, rng);
        // Convert proportions to cumulative cut points over the shuffled
        // class samples.
        let mut shuffled = samples.clone();
        shuffled.shuffle(rng);
        let n = shuffled.len();
        let mut start = 0usize;
        let mut acc = 0.0f64;
        for (c, &p) in props.iter().enumerate() {
            acc += p as f64;
            let end = if c + 1 == num_clients {
                n
            } else {
                ((acc * n as f64).round() as usize).min(n)
            };
            out[c].extend_from_slice(&shuffled[start..end]);
            start = end;
        }
    }
    out
}

/// Draw one sample from a symmetric Dirichlet(alpha) over `k` categories,
/// via normalised Gamma(alpha, 1) draws.
pub fn dirichlet_sample(alpha: f32, k: usize, rng: &mut impl Rng) -> Vec<f32> {
    let mut g: Vec<f64> = (0..k).map(|_| gamma_sample(alpha as f64, rng)).collect();
    let sum: f64 = g.iter().sum();
    if sum <= 0.0 {
        // All draws underflowed (possible for tiny alpha): dump everything
        // on one random category, the limiting behaviour of Dir(α→0).
        let mut out = vec![0.0f32; k];
        out[rng.gen_range(0..k)] = 1.0;
        return out;
    }
    for v in &mut g {
        *v /= sum;
    }
    g.into_iter().map(|v| v as f32).collect()
}

/// Marsaglia–Tsang Gamma(shape, 1) sampler; the `shape < 1` case uses the
/// standard boosting identity `Gamma(a) = Gamma(a+1) · U^(1/a)`.
fn gamma_sample(shape: f64, rng: &mut impl Rng) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen::<f64>().max(1e-300);
        return gamma_sample(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // One standard normal via Box–Muller.
        let u1: f64 = (1.0 - rng.gen::<f64>()).max(1e-300);
        let u2: f64 = rng.gen();
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(1e-300);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Give every empty client one sample stolen from the richest client.
fn repair_empty_clients(assignment: &mut [Vec<usize>], _rng: &mut impl Rng) {
    loop {
        let Some(empty) = assignment.iter().position(|a| a.is_empty()) else {
            return;
        };
        let Some(richest) = assignment
            .iter()
            .enumerate()
            .max_by_key(|(_, a)| a.len())
            .map(|(i, _)| i)
        else {
            return; // no clients at all (degenerate input)
        };
        if assignment[richest].len() <= 1 {
            return; // nothing to steal; give up (degenerate input)
        }
        let Some(sample) = assignment[richest].pop() else {
            return;
        };
        assignment[empty].push(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(seed)
    }

    /// 10 classes × 100 samples, class-major labels.
    fn labels() -> Vec<usize> {
        (0..10).flat_map(|c| std::iter::repeat_n(c, 100)).collect()
    }

    fn assert_is_partition(assignment: &[Vec<usize>], n: usize) {
        let mut all: Vec<usize> = assignment.concat();
        all.sort_unstable();
        let expect: Vec<usize> = (0..n).collect();
        assert_eq!(all, expect, "assignment must be a partition of 0..n");
    }

    #[test]
    fn iid_balances_counts() {
        let l = labels();
        let a = Partition::Iid.assign(&l, 10, 20, &mut rng(0));
        assert_is_partition(&a, 1000);
        for c in &a {
            assert_eq!(c.len(), 50);
        }
    }

    #[test]
    fn label_skew_limits_labels_per_client() {
        let l = labels();
        let a = Partition::LabelSkew { fraction: 0.2 }.assign(&l, 10, 20, &mut rng(1));
        assert_is_partition(&a, 1000);
        for client in &a {
            let mut ls: Vec<usize> = client.iter().map(|&i| l[i]).collect();
            ls.sort_unstable();
            ls.dedup();
            // ⌈0.2·10⌉ = 2 labels, +possible orphan repair.
            assert!(ls.len() <= 3, "client has {} labels", ls.len());
            assert!(!ls.is_empty());
        }
    }

    #[test]
    fn label_skew_30pct_gives_three_labels() {
        let l = labels();
        let a = Partition::LabelSkew { fraction: 0.3 }.assign(&l, 10, 10, &mut rng(2));
        assert_is_partition(&a, 1000);
        let with_three = a
            .iter()
            .filter(|client| {
                let mut ls: Vec<usize> = client.iter().map(|&i| l[i]).collect();
                ls.sort_unstable();
                ls.dedup();
                ls.len() >= 3
            })
            .count();
        assert!(with_three >= 8, "most clients should hold 3 labels");
    }

    #[test]
    fn dirichlet_small_alpha_is_skewed() {
        let l = labels();
        let a = Partition::Dirichlet { alpha: 0.1 }.assign(&l, 10, 10, &mut rng(3));
        assert_is_partition(&a, 1000);
        // With α=0.1 most clients should be dominated by few classes: the
        // max class share per client should typically be large.
        let mut dominated = 0;
        for client in &a {
            let mut counts = [0usize; 10];
            for &i in client {
                counts[l[i]] += 1;
            }
            let max = *counts.iter().max().unwrap();
            if (max as f32) / (client.len() as f32) > 0.5 {
                dominated += 1;
            }
        }
        assert!(dominated >= 5, "only {} clients dominated", dominated);
    }

    #[test]
    fn dirichlet_large_alpha_is_balanced() {
        let l = labels();
        let a = Partition::Dirichlet { alpha: 100.0 }.assign(&l, 10, 10, &mut rng(4));
        assert_is_partition(&a, 1000);
        for client in &a {
            // Should be roughly 100 samples each.
            assert!(client.len() > 50 && client.len() < 150, "{}", client.len());
        }
    }

    #[test]
    fn dirichlet_sample_sums_to_one() {
        let mut r = rng(5);
        for alpha in [0.05f32, 0.5, 5.0] {
            let p = dirichlet_sample(alpha, 8, &mut r);
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "alpha {}: sum {}", alpha, sum);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn gamma_sampler_has_correct_mean() {
        let mut r = rng(6);
        for shape in [0.5f64, 1.0, 3.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| gamma_sample(shape, &mut r)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.1 * shape.max(1.0),
                "shape {}: mean {}",
                shape,
                mean
            );
        }
    }

    #[test]
    fn no_client_left_empty() {
        let l = labels();
        for seed in 0..5 {
            let a = Partition::Dirichlet { alpha: 0.05 }.assign(&l, 10, 50, &mut rng(seed));
            assert!(a.iter().all(|c| !c.is_empty()), "seed {}", seed);
        }
    }

    #[test]
    fn partition_tags() {
        assert_eq!(Partition::Iid.tag(), "iid");
        assert_eq!(Partition::LabelSkew { fraction: 0.2 }.tag(), "skew20");
        assert_eq!(Partition::Dirichlet { alpha: 0.1 }.tag(), "dir0.1");
    }
}
