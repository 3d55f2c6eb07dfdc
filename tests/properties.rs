//! Property-based tests over the cross-crate invariants the simulation
//! relies on. Per-crate structural properties live in each crate's own
//! `tests/` directory; these cover the composition points.

use fedclust_repro::cluster::hac::{agglomerative, Linkage};
use fedclust_repro::cluster::metrics::{adjusted_rand_index, normalized_mutual_info, purity};
use fedclust_repro::cluster::ProximityMatrix;
use fedclust_repro::data::Partition;
use fedclust_repro::fedclust::clustering::ClusteringOutcome;
use fedclust_repro::fedclust::{FedClust, SavedFederation};
use fedclust_repro::fl::engine::weighted_average;
use fedclust_repro::nn::models::ModelSpec;
use fedclust_repro::tensor::rng::{derive, streams};
use proptest::prelude::*;
use rand::SeedableRng;

/// A snapshot [`SavedFederation::restore`] accepts: an MLP federation of
/// `k` clusters over `num_clients` clients.
fn snapshot(
    hidden: usize,
    geometry: (usize, usize, usize, usize),
    k: usize,
    num_clients: usize,
    fills: &[f32],
    lambda: f32,
) -> SavedFederation {
    let spec = ModelSpec::Mlp { hidden };
    let (c, h, w, classes) = geometry;
    // The RNG only seeds throwaway initial weights; restore overwrites
    // every parameter from the snapshot.
    let mut rng = derive(0, &[streams::MODEL_INIT]);
    let state_len = spec.build(c, h, w, classes, &mut rng).state_len();
    // Deterministic per-slot values so equal vectors can't mask a
    // shuffled round trip.
    let fill = |len: usize, which: usize| -> Vec<f32> {
        let base = fills[which % fills.len()];
        (0..len).map(|i| base + i as f32 * 1.0e-3).collect()
    };
    let labels: Vec<usize> = (0..num_clients).map(|i| i % k).collect();
    SavedFederation {
        model_spec: spec,
        geometry,
        init_state: fill(state_len, 0),
        labels: labels.clone(),
        cluster_states: (0..k).map(|i| fill(state_len, i + 1)).collect(),
        representatives: (0..k).map(|i| fill(hidden + 1, i + 2)).collect(),
        outcome: ClusteringOutcome {
            labels,
            num_clusters: k,
            lambda,
        },
    }
}

fn labelings(n: usize) -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    (
        proptest::collection::vec(0usize..4, n),
        proptest::collection::vec(0usize..4, n),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weighted averages are convex combinations: every output coordinate
    /// lies within the min/max of the inputs.
    #[test]
    fn weighted_average_is_convex(
        states in proptest::collection::vec(
            proptest::collection::vec(-10.0f32..10.0, 5), 1..6),
        weights in proptest::collection::vec(0.1f32..5.0, 6),
    ) {
        let items: Vec<(&[f32], f32)> = states
            .iter()
            .zip(&weights)
            .map(|(s, &w)| (s.as_slice(), w))
            .collect();
        let avg = weighted_average(&items);
        for dim in 0..5 {
            let lo = states.iter().map(|s| s[dim]).fold(f32::INFINITY, f32::min);
            let hi = states.iter().map(|s| s[dim]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(avg[dim] >= lo - 1e-4 && avg[dim] <= hi + 1e-4,
                "dim {}: {} outside [{}, {}]", dim, avg[dim], lo, hi);
        }
    }

    /// Averaging identical states is the identity.
    #[test]
    fn weighted_average_of_identical_states_is_identity(
        state in proptest::collection::vec(-10.0f32..10.0, 8),
        w1 in 0.1f32..5.0,
        w2 in 0.1f32..5.0,
    ) {
        let avg = weighted_average(&[(&state, w1), (&state, w2)]);
        for (a, b) in avg.iter().zip(&state) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Cutting a dendrogram at increasing λ never increases cluster count,
    /// and the extremes are n singletons / one cluster.
    #[test]
    fn dendrogram_cuts_are_monotone(points in proptest::collection::vec(-100.0f32..100.0, 2..12)) {
        let m = ProximityMatrix::from_fn(points.len(), |i, j| (points[i] - points[j]).abs());
        let d = agglomerative(&m, Linkage::Average);
        let max_dist = d.merges().last().map_or(0.0, |m| m.distance);
        let mut prev = usize::MAX;
        for step in 0..8 {
            let lambda = max_dist * step as f32 / 7.0;
            let k = d.num_clusters_at(lambda);
            prop_assert!(k <= prev, "λ {} gave {} clusters after {}", lambda, k, prev);
            prev = k;
        }
        prop_assert!(d.cut_at(max_dist + 1.0).iter().all(|&l| l == 0));
        let fine = d.cut_at(-1.0);
        let k_fine = fine.iter().copied().max().unwrap_or(0) + 1;
        prop_assert_eq!(k_fine, points.len());
    }

    /// Cluster metrics are symmetric in their arguments (ARI, NMI) and
    /// bounded; purity of a labeling against itself is 1.
    #[test]
    fn cluster_metric_axioms((a, b) in labelings(10)) {
        let ari_ab = adjusted_rand_index(&a, &b);
        let ari_ba = adjusted_rand_index(&b, &a);
        prop_assert!((ari_ab - ari_ba).abs() < 1e-9);
        prop_assert!(ari_ab <= 1.0 + 1e-9);

        let nmi_ab = normalized_mutual_info(&a, &b);
        let nmi_ba = normalized_mutual_info(&b, &a);
        prop_assert!((nmi_ab - nmi_ba).abs() < 1e-9);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&nmi_ab));

        prop_assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-9);
        prop_assert!((purity(&a, &a) - 1.0).abs() < 1e-9);
        prop_assert!(purity(&a, &b) > 0.0 && purity(&a, &b) <= 1.0 + 1e-9);
    }

    /// Every partition strategy produces an exact partition of the sample
    /// indices with no empty client, for any label layout.
    #[test]
    fn partitions_are_exact_and_nonempty(
        labels in proptest::collection::vec(0usize..5, 30..120),
        num_clients in 2usize..8,
        seed in 0u64..1000,
        strategy in 0usize..3,
    ) {
        let partition = match strategy {
            0 => Partition::Iid,
            1 => Partition::LabelSkew { fraction: 0.4 },
            _ => Partition::Dirichlet { alpha: 0.3 },
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let assignment = partition.assign(&labels, 5, num_clients, &mut rng);
        prop_assert_eq!(assignment.len(), num_clients);
        let mut all: Vec<usize> = assignment.concat();
        all.sort_unstable();
        let expect: Vec<usize> = (0..labels.len()).collect();
        prop_assert_eq!(all, expect);
        prop_assert!(assignment.iter().all(|c| !c.is_empty()));
    }

    /// A [`SavedFederation`] survives serialize → deserialize → restore
    /// bit-identically, for arbitrary model specs, dataset geometries and
    /// cluster counts. This is the persistence contract the checkpoint
    /// subsystem's FedClust snapshots lean on.
    #[test]
    fn saved_federation_round_trips_bit_identically(
        hidden in 4usize..32,
        c in 1usize..4,
        h in 6usize..17,
        w in 6usize..17,
        classes in 2usize..11,
        k in 1usize..5,
        num_clients in 1usize..10,
        fills in proptest::collection::vec(-1000.0f32..1000.0, 6),
        lambda in 0.0f32..10.0,
    ) {
        let saved = snapshot(hidden, (c, h, w, classes), k, num_clients, &fills, lambda);
        let back = SavedFederation::from_json(&saved.to_json()).unwrap();
        let method = FedClust { warmup_epochs: hidden, ..FedClust::default() };
        let restored = back.restore(method).unwrap();
        prop_assert_eq!(restored.method, method);
        prop_assert_eq!(&restored.template.state_vec(), &saved.init_state);
        let back = &restored.saved;
        prop_assert_eq!(&back.init_state, &saved.init_state);
        prop_assert_eq!(&back.cluster_states, &saved.cluster_states);
        prop_assert_eq!(&back.representatives, &saved.representatives);
        prop_assert_eq!(&back.labels, &saved.labels);
        prop_assert_eq!(&back.outcome, &saved.outcome);
        prop_assert_eq!(back.model_spec, saved.model_spec);
        prop_assert_eq!(back.geometry, saved.geometry);
    }
}

/// `from_json` reads checkpoint text, and a checksum-valid hostile
/// generation can carry any text. Starting from a real snapshot's JSON,
/// every input below must come back `Ok` or `Err`: no panic, no stack
/// overflow.
#[test]
fn saved_federation_from_json_is_total() {
    let fills = [-1.5, 0.1, 1e-40, 3e38, -0.0, 7.0];
    let json = snapshot(2, (1, 2, 2, 2), 2, 3, &fills, 0.25).to_json();
    assert!(SavedFederation::from_json(&json).is_ok());

    // The closing brace is the last byte, so every proper prefix is cut.
    for end in 0..json.len() {
        assert!(
            SavedFederation::from_json(&json[..end]).is_err(),
            "{} bytes",
            end
        );
    }

    // 0xFF cannot sit in a `&str`; it arrives as U+FFFD.
    let mut bytes = json.clone().into_bytes();
    for i in 0..bytes.len() {
        let original = bytes[i];
        for &b in b"\",:[]{}-.e0 \xFF" {
            bytes[i] = b;
            let _ = SavedFederation::from_json(&String::from_utf8_lossy(&bytes));
        }
        bytes[i] = original;
    }

    let after = |key: &str| {
        json.find(key)
            .map(|i| i + key.len())
            .expect("key is written")
    };
    let (spec, states) = (after("\"model_spec\":"), after("\"cluster_states\":"));
    let (init, labels) = (after("\"init_state\":["), after("\"labels\":["));
    let digits = "9".repeat(1_000_000);
    for text in [
        "[".repeat(100_000),
        format!("{}{}", &json[..states], "[".repeat(100_000)),
        format!("{}{},{}", &json[..init], digits, &json[init..]),
        format!("{}{},{}", &json[..labels], digits, &json[labels..]),
        format!("{}\"LeNet5", &json[..spec]),
        format!("{}\"{}", &json[..spec], "x".repeat(100_000)),
    ] {
        let _ = SavedFederation::from_json(&text);
    }
}
