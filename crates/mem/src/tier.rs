//! The two tiers of a heterogeneous memory.

use std::fmt;

/// A memory tier in a two-tier heterogeneous memory system.
///
/// In the paper's Optane platform `Fast` is DDR4 DRAM and `Slow` is Optane DC
/// persistent memory; in the GPU platform `Fast` is on-device HBM and `Slow`
/// is host DRAM reached over PCIe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// The small, high-performance tier (DRAM / HBM).
    Fast,
    /// The large, lower-performance tier (Optane PMM / host DRAM).
    Slow,
}

impl Tier {
    /// The opposite tier.
    ///
    /// ```
    /// use sentinel_mem::Tier;
    /// assert_eq!(Tier::Fast.other(), Tier::Slow);
    /// assert_eq!(Tier::Slow.other(), Tier::Fast);
    /// ```
    #[must_use]
    pub fn other(self) -> Tier {
        match self {
            Tier::Fast => Tier::Slow,
            Tier::Slow => Tier::Fast,
        }
    }

    /// Index usable for two-element per-tier arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Tier::Fast => 0,
            Tier::Slow => 1,
        }
    }

    /// Both tiers, fast first.
    #[must_use]
    pub fn both() -> [Tier; 2] {
        [Tier::Fast, Tier::Slow]
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Fast => write!(f, "fast"),
            Tier::Slow => write!(f, "slow"),
        }
    }
}

impl sentinel_util::ToJson for Tier {
    fn to_json(&self) -> sentinel_util::Json {
        sentinel_util::Json::Str(format!("{self:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_is_involutive() {
        for t in Tier::both() {
            assert_eq!(t.other().other(), t);
            assert_ne!(t.other(), t);
        }
    }

    #[test]
    fn indices_are_distinct_and_small() {
        assert_eq!(Tier::Fast.index(), 0);
        assert_eq!(Tier::Slow.index(), 1);
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(Tier::Fast.to_string(), "fast");
        assert_eq!(Tier::Slow.to_string(), "slow");
    }
}
