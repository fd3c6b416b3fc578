//! Block erase (wear) accounting.

use serde::{Deserialize, Serialize};

/// Tracks per-block erase counts and summarizes wear across the SSD.
///
/// The count column grows to the highest block erased so far, so a device
/// that never collects garbage pays nothing for it; blocks past the column's
/// end have never been erased.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::ftl::WearTracker;
///
/// let mut wear = WearTracker::new(4);
/// wear.record_erase(1);
/// wear.record_erase(1);
/// wear.record_erase(2);
/// assert_eq!(wear.count(1), 2);
/// assert_eq!(wear.max(), 2);
/// assert_eq!(wear.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WearTracker {
    blocks: usize,
    counts: Vec<u32>,
    total: u64,
}

impl WearTracker {
    /// Creates a tracker for `blocks` blocks, all with zero erases.
    pub fn new(blocks: usize) -> Self {
        WearTracker {
            blocks,
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Number of tracked blocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Records an erase of the block at `block_index`.
    ///
    /// # Panics
    ///
    /// Panics if `block_index` is not below [`WearTracker::blocks`].
    pub fn record_erase(&mut self, block_index: usize) {
        assert!(
            block_index < self.blocks,
            "block {block_index} out of range"
        );
        if block_index >= self.counts.len() {
            self.counts.resize(block_index + 1, 0);
        }
        self.counts[block_index] += 1;
        self.total += 1;
    }

    /// Erase count of one block.
    pub fn count(&self, block_index: usize) -> u32 {
        self.counts.get(block_index).copied().unwrap_or(0)
    }

    /// Total erases across all blocks.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Highest per-block erase count.
    pub fn max(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Lowest per-block erase count.
    pub fn min(&self) -> u32 {
        if self.counts.len() < self.blocks {
            return 0;
        }
        self.counts.iter().copied().min().unwrap_or(0)
    }

    /// Mean per-block erase count.
    pub fn mean(&self) -> f64 {
        if self.blocks == 0 {
            return 0.0;
        }
        self.total as f64 / self.blocks as f64
    }

    /// The wear imbalance: max − min erase count.  A perfectly wear-levelled SSD
    /// keeps this small.
    pub fn imbalance(&self) -> u32 {
        self.max().saturating_sub(self.min())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tracker_is_zeroed() {
        let wear = WearTracker::new(8);
        assert_eq!(wear.blocks(), 8);
        assert_eq!(wear.total(), 0);
        assert_eq!(wear.max(), 0);
        assert_eq!(wear.min(), 0);
        assert_eq!(wear.mean(), 0.0);
        assert_eq!(wear.imbalance(), 0);
    }

    #[test]
    fn erases_accumulate_per_block() {
        let mut wear = WearTracker::new(4);
        wear.record_erase(0);
        wear.record_erase(0);
        wear.record_erase(3);
        assert_eq!(wear.count(0), 2);
        assert_eq!(wear.count(1), 0);
        assert_eq!(wear.count(3), 1);
        assert_eq!(wear.total(), 3);
        assert_eq!(wear.max(), 2);
        assert_eq!(wear.min(), 0);
        assert_eq!(wear.imbalance(), 2);
        assert!((wear.mean() - 0.75).abs() < 1e-12);
        for block in 0..4 {
            wear.record_erase(block);
        }
        assert_eq!(wear.min(), 1, "every block has now been erased");
    }

    #[test]
    fn empty_tracker_is_safe() {
        let wear = WearTracker::new(0);
        assert_eq!(wear.max(), 0);
        assert_eq!(wear.mean(), 0.0);
    }
}
