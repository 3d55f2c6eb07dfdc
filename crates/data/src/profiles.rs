//! Dataset profiles: the four benchmark datasets' synthetic stand-ins.

/// Parameters of one synthetic dataset family.
///
/// `base_blend` controls inter-class confusability: each class prototype is
/// `base_blend · shared_base + (1 − base_blend) · class_unique`, so larger
/// values make classes harder to tell apart (CIFAR-like difficulty), while
/// small values give clean, separable classes (FMNIST-like).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileParams {
    /// Number of classes.
    pub num_classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Per-pixel Gaussian noise std added to each sample.
    pub noise_std: f32,
    /// Maximum random translation (pixels) applied per sample.
    pub max_shift: usize,
    /// Fraction of the shared base image blended into every prototype.
    pub base_blend: f32,
    /// Random per-sample brightness jitter amplitude.
    pub brightness_jitter: f32,
}

/// The four benchmark datasets the paper evaluates, as synthetic profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetProfile {
    /// CIFAR-10 stand-in: 10 classes, 3×16×16, moderately hard.
    Cifar10Like,
    /// CIFAR-100 stand-in: 20 classes (scaled from 100), 3×8×8, hard.
    Cifar100Like,
    /// Fashion-MNIST stand-in: 10 classes, 1×16×16, easy.
    FmnistLike,
    /// SVHN stand-in: 10 classes, 3×16×16, high intra-class variance.
    SvhnLike,
}

impl DatasetProfile {
    /// All four profiles, in the paper's table order.
    pub const ALL: [DatasetProfile; 4] = [
        DatasetProfile::Cifar10Like,
        DatasetProfile::Cifar100Like,
        DatasetProfile::FmnistLike,
        DatasetProfile::SvhnLike,
    ];

    /// The profile's display name (matching the paper's column headers).
    pub fn name(&self) -> &'static str {
        match self {
            DatasetProfile::Cifar10Like => "CIFAR-10",
            DatasetProfile::Cifar100Like => "CIFAR-100",
            DatasetProfile::FmnistLike => "FMNIST",
            DatasetProfile::SvhnLike => "SVHN",
        }
    }

    /// Generation parameters for this profile.
    pub fn params(&self) -> ProfileParams {
        match self {
            DatasetProfile::Cifar10Like => ProfileParams {
                num_classes: 10,
                channels: 3,
                height: 16,
                width: 16,
                noise_std: 0.45,
                max_shift: 2,
                base_blend: 0.55,
                brightness_jitter: 0.15,
            },
            DatasetProfile::Cifar100Like => ProfileParams {
                num_classes: 20,
                channels: 3,
                // 8×8 keeps the ResNet-9 column inside the CPU budget
                // (see EXPERIMENTS.md scaling notes).
                height: 8,
                width: 8,
                noise_std: 0.45,
                max_shift: 2,
                base_blend: 0.65,
                brightness_jitter: 0.15,
            },
            DatasetProfile::FmnistLike => ProfileParams {
                num_classes: 10,
                channels: 1,
                height: 16,
                width: 16,
                noise_std: 0.35,
                max_shift: 1,
                base_blend: 0.35,
                brightness_jitter: 0.08,
            },
            DatasetProfile::SvhnLike => ProfileParams {
                num_classes: 10,
                channels: 3,
                height: 16,
                width: 16,
                noise_std: 0.55,
                max_shift: 3,
                base_blend: 0.45,
                brightness_jitter: 0.25,
            },
        }
    }

    /// A stable seed-stream label per profile (keeps dataset synthesis of
    /// different profiles statistically independent under one root seed).
    pub fn stream_id(&self) -> u64 {
        match self {
            DatasetProfile::Cifar10Like => 11,
            DatasetProfile::Cifar100Like => 12,
            DatasetProfile::FmnistLike => 13,
            DatasetProfile::SvhnLike => 14,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_are_distinct() {
        for (i, a) in DatasetProfile::ALL.iter().enumerate() {
            for b in DatasetProfile::ALL.iter().skip(i + 1) {
                assert_ne!(a, b);
                assert_ne!(a.name(), b.name());
                assert_ne!(a.stream_id(), b.stream_id());
            }
        }
    }

    #[test]
    fn cifar100_has_more_classes() {
        assert!(
            DatasetProfile::Cifar100Like.params().num_classes
                > DatasetProfile::Cifar10Like.params().num_classes
        );
    }

    #[test]
    fn fmnist_is_grayscale() {
        assert_eq!(DatasetProfile::FmnistLike.params().channels, 1);
    }

    #[test]
    fn svhn_has_highest_variance() {
        let svhn = DatasetProfile::SvhnLike.params();
        for p in [DatasetProfile::Cifar10Like, DatasetProfile::FmnistLike] {
            assert!(svhn.noise_std >= p.params().noise_std);
            assert!(svhn.max_shift >= p.params().max_shift);
        }
    }
}
