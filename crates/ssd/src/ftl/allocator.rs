//! Physical page allocation: striping policy, per-plane active blocks, free-block
//! lists, and per-block valid-page accounting.
//!
//! The allocator implements a *static* plane-selection policy (the placement of a
//! logical page's chip/die/plane is a pure function of its LPN and the configured
//! [`AllocationPolicy`]), combined with *dynamic* block/page selection inside the
//! plane (append to the plane's active block).  Static plane selection is what lets
//! the FTL preprocessor expose a stable physical layout preview to the schedulers
//! before the data is actually written — the capability PAS and Sprinkler rely on.

use serde::{Deserialize, Serialize};
use sprinkler_flash::{FlashGeometry, Lpn, PhysicalPageAddr};

use crate::config::AllocationPolicy;

/// The allocation head of one plane that has been allocated from.
///
/// A plane's free blocks are the *fresh* blocks `fresh..blocks_per_plane`,
/// never handed out since the device was built, followed by the FIFO ring of
/// erased blocks.  Fresh blocks come out ascending, then erased blocks in
/// erase order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct PlaneHead {
    /// The block currently being appended to, if any.
    active_block: Option<u32>,
    /// Next page offset to program in the active block.
    next_page: u32,
    /// First fresh block.
    fresh: u32,
    /// Position of the oldest erased block in the plane's ring row.
    ring_head: u32,
    /// Erased blocks waiting in the ring.
    ring_len: u32,
}

/// The physical location of one plane in the SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlaneLocation {
    /// Channel index.
    pub channel: u32,
    /// Chip position within the channel.
    pub way: u32,
    /// Die within the chip.
    pub die: u32,
    /// Plane within the die.
    pub plane: u32,
}

/// Page allocator and valid-page directory for the whole SSD.
///
/// Host memory follows the planes a run writes to, not the geometry: a
/// plane's allocation head and its row of per-block columns are materialised
/// by the first allocation from it.  Until then the plane reads as every
/// block free and no page valid.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::ftl::Allocator;
/// use sprinkler_ssd::config::AllocationPolicy;
/// use sprinkler_flash::{FlashGeometry, Lpn};
///
/// let g = FlashGeometry::small_test();
/// let mut alloc = Allocator::new(g.clone(), AllocationPolicy::ChannelWayDiePlane);
/// let place = alloc.static_placement(Lpn::new(0));
/// let addr = alloc.allocate(alloc.plane_index_of(place)).unwrap();
/// assert_eq!(addr.channel, place.channel);
/// assert_eq!(addr.page, 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Allocator {
    geometry: FlashGeometry,
    policy: AllocationPolicy,
    /// Per plane: 0 until the plane is first allocated from, then one more
    /// than its row, the index into `heads` and the per-block columns.
    rows: Vec<u32>,
    heads: Vec<PlaneHead>,
    // Per-block columns: `blocks_per_plane` entries per row, in row order.
    /// Valid page bitmap per block (pages_per_block ≤ 128).
    valid_bits: Vec<u128>,
    /// Whether each block has been handed out (active or fully written) since
    /// its last erase.
    in_use: Vec<bool>,
    /// Each plane's ring of erased blocks, oldest at its head.
    erased: Vec<u32>,
}

impl Allocator {
    /// Creates an allocator with every block free.
    pub fn new(geometry: FlashGeometry, policy: AllocationPolicy) -> Self {
        Allocator {
            rows: vec![0; geometry.total_planes()],
            geometry,
            policy,
            heads: Vec::new(),
            valid_bits: Vec::new(),
            in_use: Vec::new(),
            erased: Vec::new(),
        }
    }

    /// The geometry this allocator manages.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Total number of planes.
    pub fn plane_count(&self) -> usize {
        self.rows.len()
    }

    /// The row of `plane_index`, if it has been materialised.
    fn row(&self, plane_index: usize) -> Option<usize> {
        self.rows[plane_index]
            .checked_sub(1)
            .map(|row| row as usize)
    }

    /// The row of `plane_index`, materialising it on first use.
    fn row_or_insert(&mut self, plane_index: usize) -> usize {
        if let Some(row) = self.row(plane_index) {
            return row;
        }
        let row = self.heads.len();
        self.heads.push(PlaneHead {
            active_block: None,
            next_page: 0,
            fresh: 0,
            ring_head: 0,
            ring_len: 0,
        });
        let cells = self.valid_bits.len() + self.geometry.blocks_per_plane;
        self.valid_bits.resize(cells, 0);
        self.in_use.resize(cells, false);
        self.erased.resize(cells, 0);
        self.rows[plane_index] = row as u32 + 1;
        row
    }

    /// Index of `block` of `row` in the per-block columns.
    fn cell(&self, row: usize, block: u32) -> usize {
        row * self.geometry.blocks_per_plane + block as usize
    }

    /// The valid page bitmap of `block` in `plane_index`.
    fn valid_bits_of(&self, plane_index: usize, block: u32) -> u128 {
        self.row(plane_index)
            .map_or(0, |row| self.valid_bits[self.cell(row, block)])
    }

    /// The static plane-selection function: which channel/way/die/plane a logical
    /// page is placed on, independent of when it is written.
    pub fn static_placement(&self, lpn: Lpn) -> PlaneLocation {
        let g = &self.geometry;
        let mut idx = lpn.value();
        let (channel, way, die, plane) = match self.policy {
            AllocationPolicy::ChannelWayDiePlane => {
                let channel = idx % g.channels as u64;
                idx /= g.channels as u64;
                let way = idx % g.chips_per_channel as u64;
                idx /= g.chips_per_channel as u64;
                let die = idx % g.dies_per_chip as u64;
                idx /= g.dies_per_chip as u64;
                let plane = idx % g.planes_per_die as u64;
                (channel, way, die, plane)
            }
            AllocationPolicy::WayChannelDiePlane => {
                let way = idx % g.chips_per_channel as u64;
                idx /= g.chips_per_channel as u64;
                let channel = idx % g.channels as u64;
                idx /= g.channels as u64;
                let die = idx % g.dies_per_chip as u64;
                idx /= g.dies_per_chip as u64;
                let plane = idx % g.planes_per_die as u64;
                (channel, way, die, plane)
            }
            AllocationPolicy::DiePlaneChannelWay => {
                let die = idx % g.dies_per_chip as u64;
                idx /= g.dies_per_chip as u64;
                let plane = idx % g.planes_per_die as u64;
                idx /= g.planes_per_die as u64;
                let channel = idx % g.channels as u64;
                idx /= g.channels as u64;
                let way = idx % g.chips_per_channel as u64;
                (channel, way, die, plane)
            }
        };
        PlaneLocation {
            channel: channel as u32,
            way: way as u32,
            die: die as u32,
            plane: plane as u32,
        }
    }

    /// Flat plane index of a plane location.
    pub fn plane_index_of(&self, loc: PlaneLocation) -> usize {
        let g = &self.geometry;
        let chip = g.chip_index(loc.channel, loc.way);
        (chip * g.dies_per_chip + loc.die as usize) * g.planes_per_die + loc.plane as usize
    }

    /// Flat plane index of a physical page address.
    pub fn plane_index_of_addr(&self, addr: PhysicalPageAddr) -> usize {
        self.plane_index_of(PlaneLocation {
            channel: addr.channel,
            way: addr.way,
            die: addr.die,
            plane: addr.plane,
        })
    }

    /// The plane location of a flat plane index.
    pub fn plane_location(&self, plane_index: usize) -> PlaneLocation {
        let g = &self.geometry;
        let plane = (plane_index % g.planes_per_die) as u32;
        let rest = plane_index / g.planes_per_die;
        let die = (rest % g.dies_per_chip) as u32;
        let chip = rest / g.dies_per_chip;
        let loc = g.chip_location(chip);
        PlaneLocation {
            channel: loc.channel,
            way: loc.way,
            die,
            plane,
        }
    }

    /// A deterministic physical address for reads of never-written logical pages.
    /// Keeps unmapped reads exercising the same parallelism as mapped ones.
    pub fn deterministic_addr(&self, lpn: Lpn) -> PhysicalPageAddr {
        let g = &self.geometry;
        let loc = self.static_placement(lpn);
        let planes_total =
            (g.channels * g.chips_per_channel * g.dies_per_chip * g.planes_per_die) as u64;
        let seq = lpn.value() / planes_total;
        PhysicalPageAddr {
            channel: loc.channel,
            way: loc.way,
            die: loc.die,
            plane: loc.plane,
            block: (seq / g.pages_per_block as u64 % g.blocks_per_plane as u64) as u32,
            page: (seq % g.pages_per_block as u64) as u32,
        }
    }

    /// Number of free (erased, unallocated) blocks in a plane.
    pub fn free_blocks(&self, plane_index: usize) -> usize {
        let blocks = self.geometry.blocks_per_plane;
        self.row(plane_index).map_or(blocks, |row| {
            let head = &self.heads[row];
            blocks - head.fresh as usize + head.ring_len as usize
        })
    }

    /// Allocates the next physical page in `plane_index`, opening a new active
    /// block from the free blocks when necessary: the lowest fresh block, else
    /// the longest-erased one.  Returns `None` when the plane has neither an
    /// active block with room nor a free block (GC must reclaim space first).
    pub fn allocate(&mut self, plane_index: usize) -> Option<PhysicalPageAddr> {
        let pages_per_block = self.geometry.pages_per_block as u32;
        let blocks = self.geometry.blocks_per_plane as u32;
        let loc = self.plane_location(plane_index);
        let row = self.row_or_insert(plane_index);
        let ring = row * blocks as usize;
        let head = &mut self.heads[row];
        let block = match head.active_block {
            Some(block) if head.next_page < pages_per_block => block,
            _ => {
                let block = if head.fresh < blocks {
                    head.fresh += 1;
                    head.fresh - 1
                } else if head.ring_len > 0 {
                    let block = self.erased[ring + head.ring_head as usize];
                    head.ring_head = (head.ring_head + 1) % blocks;
                    head.ring_len -= 1;
                    block
                } else {
                    return None;
                };
                head.active_block = Some(block);
                head.next_page = 0;
                self.in_use[ring + block as usize] = true;
                block
            }
        };
        let page = head.next_page;
        head.next_page += 1;
        Some(PhysicalPageAddr {
            channel: loc.channel,
            way: loc.way,
            die: loc.die,
            plane: loc.plane,
            block,
            page,
        })
    }

    /// Marks the page at `addr` valid (it now holds live data).
    pub fn mark_valid(&mut self, addr: PhysicalPageAddr) {
        let row = self.row_or_insert(self.plane_index_of_addr(addr));
        let cell = self.cell(row, addr.block);
        self.valid_bits[cell] |= 1u128 << addr.page;
    }

    /// Marks the page at `addr` invalid (its data was overwritten or migrated).
    pub fn mark_invalid(&mut self, addr: PhysicalPageAddr) {
        if let Some(row) = self.row(self.plane_index_of_addr(addr)) {
            let cell = self.cell(row, addr.block);
            self.valid_bits[cell] &= !(1u128 << addr.page);
        }
    }

    /// Number of valid pages in `block` of `plane_index`.
    pub fn valid_pages_in_block(&self, plane_index: usize, block: u32) -> usize {
        self.valid_bits_of(plane_index, block).count_ones() as usize
    }

    /// The page offsets holding valid data in `block` of `plane_index`,
    /// ascending.  The iterator walks a copy of the block's valid bitmap, so
    /// it allocates nothing and does not borrow the allocator: the caller may
    /// keep allocating and invalidating while it iterates.
    pub fn valid_page_offsets(&self, plane_index: usize, block: u32) -> impl Iterator<Item = u32> {
        let mut bits = self.valid_bits_of(plane_index, block);
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let page = bits.trailing_zeros();
            bits &= bits - 1;
            Some(page)
        })
    }

    /// Chooses a garbage-collection victim in `plane_index`: the in-use,
    /// non-active block with the fewest valid pages (greedy policy; the lowest
    /// such block on a tie).  Returns `None` if no block is eligible.
    pub fn victim_block(&self, plane_index: usize) -> Option<u32> {
        let row = self.row(plane_index)?;
        let active = self.heads[row].active_block;
        let first = self.cell(row, 0);
        let mut best: Option<(u32, u32)> = None;
        for block in 0..self.geometry.blocks_per_plane as u32 {
            let cell = first + block as usize;
            if !self.in_use[cell] || active == Some(block) {
                continue;
            }
            let valid = self.valid_bits[cell].count_ones();
            if best.is_none_or(|(_, best_valid)| valid < best_valid) {
                best = Some((block, valid));
            }
        }
        best.map(|(block, _)| block)
    }

    /// Erases `block` in `plane_index`: clears its valid directory and queues
    /// it behind the plane's other erased blocks.  A block that is not in use
    /// (already free) is left as it is.
    pub fn erase_block(&mut self, plane_index: usize, block: u32) {
        let Some(row) = self.row(plane_index) else {
            return;
        };
        let blocks = self.geometry.blocks_per_plane as u32;
        let cell = self.cell(row, block);
        if !self.in_use[cell] {
            return;
        }
        self.valid_bits[cell] = 0;
        self.in_use[cell] = false;
        let head = &mut self.heads[row];
        if head.active_block == Some(block) {
            head.active_block = None;
            head.next_page = 0;
        }
        let tail = (head.ring_head + head.ring_len) % blocks;
        head.ring_len += 1;
        let tail = self.cell(row, tail);
        self.erased[tail] = block;
    }

    /// Global block index of an address (used by the wear tracker).
    pub fn global_block_index(&self, addr: PhysicalPageAddr) -> usize {
        self.plane_index_of_addr(addr) * self.geometry.blocks_per_plane + addr.block as usize
    }

    /// Total number of blocks in the SSD.
    pub fn total_blocks(&self) -> usize {
        self.geometry.total_planes() * self.geometry.blocks_per_plane
    }

    /// Total valid pages across the SSD (live data footprint, in pages).
    pub fn total_valid_pages(&self) -> u64 {
        self.valid_bits
            .iter()
            .map(|bits| u64::from(bits.count_ones()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> Allocator {
        Allocator::new(
            FlashGeometry::small_test(),
            AllocationPolicy::ChannelWayDiePlane,
        )
    }

    #[test]
    fn static_placement_stripes_channels_first() {
        let a = alloc();
        let g = a.geometry().clone();
        let p0 = a.static_placement(Lpn::new(0));
        let p1 = a.static_placement(Lpn::new(1));
        let p2 = a.static_placement(Lpn::new(g.channels as u64));
        assert_eq!(p0.channel, 0);
        assert_eq!(p1.channel, 1);
        assert_eq!(p2.channel, 0);
        assert_eq!(p2.way, 1);
    }

    #[test]
    fn static_placement_policies_differ() {
        let g = FlashGeometry::small_test();
        let cwdp = Allocator::new(g.clone(), AllocationPolicy::ChannelWayDiePlane);
        let wcdp = Allocator::new(g.clone(), AllocationPolicy::WayChannelDiePlane);
        let dpcw = Allocator::new(g, AllocationPolicy::DiePlaneChannelWay);
        // LPN 1 hits channel 1 under CWDP, way 1 under WCDP, die 1 under DPCW.
        assert_eq!(cwdp.static_placement(Lpn::new(1)).channel, 1);
        assert_eq!(wcdp.static_placement(Lpn::new(1)).way, 1);
        assert_eq!(dpcw.static_placement(Lpn::new(1)).die, 1);
    }

    #[test]
    fn plane_index_roundtrip() {
        let a = alloc();
        for plane_index in 0..a.plane_count() {
            let loc = a.plane_location(plane_index);
            assert_eq!(a.plane_index_of(loc), plane_index);
        }
    }

    #[test]
    fn consecutive_lpns_spread_over_all_planes() {
        let a = alloc();
        let total = a.plane_count();
        let mut seen = vec![false; total];
        for lpn in 0..total as u64 {
            seen[a.plane_index_of(a.static_placement(Lpn::new(lpn)))] = true;
        }
        assert!(
            seen.iter().all(|&hit| hit),
            "every plane should be hit exactly once"
        );
    }

    #[test]
    fn allocation_fills_blocks_sequentially() {
        let mut a = alloc();
        let pages_per_block = a.geometry().pages_per_block as u32;
        let first = a.allocate(0).unwrap();
        assert_eq!(first.block, 0);
        assert_eq!(first.page, 0);
        for expected_page in 1..pages_per_block {
            let addr = a.allocate(0).unwrap();
            assert_eq!(addr.block, 0);
            assert_eq!(addr.page, expected_page);
        }
        // Block 0 is now full; the next allocation opens block 1.
        let next = a.allocate(0).unwrap();
        assert_eq!(next.block, 1);
        assert_eq!(next.page, 0);
    }

    #[test]
    fn allocation_exhausts_and_returns_none() {
        let mut a = alloc();
        let g = a.geometry().clone();
        let capacity = g.blocks_per_plane * g.pages_per_block;
        for _ in 0..capacity {
            assert!(a.allocate(3).is_some());
        }
        assert!(a.allocate(3).is_none());
        assert_eq!(a.free_blocks(3), 0);
    }

    #[test]
    fn valid_accounting_and_victim_selection() {
        let mut a = alloc();
        // Fill block 0 and block 1 of plane 0 with valid pages.
        let mut addrs = Vec::new();
        for _ in 0..2 * a.geometry().pages_per_block {
            let addr = a.allocate(0).unwrap();
            a.mark_valid(addr);
            addrs.push(addr);
        }
        assert_eq!(a.valid_pages_in_block(0, 0), a.geometry().pages_per_block);
        // Invalidate most of block 0.
        for addr in addrs.iter().filter(|ad| ad.block == 0).take(6) {
            a.mark_invalid(*addr);
        }
        assert_eq!(a.valid_pages_in_block(0, 0), 2);
        // Open a third block so block 1 is not active; victim should be block 0.
        let addr = a.allocate(0).unwrap();
        assert_eq!(addr.block, 2);
        let victim = a.victim_block(0).unwrap();
        assert_eq!(victim, 0);
        let survivors: Vec<u32> = a.valid_page_offsets(0, 0).collect();
        assert_eq!(survivors.len(), 2);
        assert!(survivors.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn erase_returns_block_to_free_list() {
        let mut a = alloc();
        let blocks = a.geometry().blocks_per_plane;
        let addr = a.allocate(0).unwrap();
        a.mark_valid(addr);
        assert_eq!(a.free_blocks(0), blocks - 1);
        a.erase_block(0, addr.block);
        assert_eq!(a.free_blocks(0), blocks);
        assert_eq!(a.valid_pages_in_block(0, addr.block), 0);
        // After erase the block can be reused from the start.
        let fresh = a.allocate(0).unwrap();
        assert_eq!(fresh.page, 0);
    }

    #[test]
    fn double_mark_valid_is_idempotent() {
        let mut a = alloc();
        let addr = a.allocate(0).unwrap();
        a.mark_valid(addr);
        a.mark_valid(addr);
        assert_eq!(a.valid_pages_in_block(0, addr.block), 1);
        a.mark_invalid(addr);
        a.mark_invalid(addr);
        assert_eq!(a.valid_pages_in_block(0, addr.block), 0);
    }

    #[test]
    fn victim_requires_in_use_blocks() {
        let a = alloc();
        assert!(a.victim_block(0).is_none());
    }

    #[test]
    fn global_block_index_is_unique() {
        let a = alloc();
        let g = a.geometry().clone();
        let mut seen = vec![false; a.total_blocks()];
        for plane in 0..a.plane_count() {
            let loc = a.plane_location(plane);
            for block in 0..g.blocks_per_plane as u32 {
                let addr = PhysicalPageAddr {
                    channel: loc.channel,
                    way: loc.way,
                    die: loc.die,
                    plane: loc.plane,
                    block,
                    page: 0,
                };
                let index = a.global_block_index(addr);
                assert!(!seen[index], "block index {index} repeats");
                seen[index] = true;
            }
        }
        assert!(seen.iter().all(|&hit| hit));
    }

    #[test]
    fn deterministic_addr_is_stable_and_in_range() {
        let a = alloc();
        let g = a.geometry().clone();
        for lpn in 0..500u64 {
            let addr = a.deterministic_addr(Lpn::new(lpn));
            assert!(g.check_addr(addr).is_ok(), "lpn {lpn} gave {addr}");
            assert_eq!(addr, a.deterministic_addr(Lpn::new(lpn)));
        }
    }

    #[test]
    fn total_valid_pages_counts_live_data() {
        let mut a = alloc();
        assert_eq!(a.total_valid_pages(), 0);
        let addr = a.allocate(0).unwrap();
        a.mark_valid(addr);
        let addr2 = a.allocate(5).unwrap();
        a.mark_valid(addr2);
        assert_eq!(a.total_valid_pages(), 2);
    }

    #[test]
    fn untouched_planes_read_as_free_and_hold_nothing() {
        let mut a = alloc();
        let blocks = a.geometry().blocks_per_plane;
        a.allocate(0).unwrap();
        assert_eq!(a.heads.len(), 1, "only the allocated plane is materialised");
        for plane in 1..a.plane_count() {
            assert_eq!(a.free_blocks(plane), blocks);
            assert_eq!(a.valid_pages_in_block(plane, 0), 0);
            assert_eq!(a.valid_page_offsets(plane, 0).count(), 0);
            assert!(a.victim_block(plane).is_none());
        }
    }

    #[test]
    fn erased_blocks_follow_the_fresh_ones_in_erase_order() {
        let mut a = alloc();
        let g = a.geometry().clone();
        // Fill blocks 0..3, then erase 2 and 0 (in that order).
        for _ in 0..3 * g.pages_per_block {
            a.allocate(0).unwrap();
        }
        a.erase_block(0, 2);
        a.erase_block(0, 0);
        assert_eq!(a.free_blocks(0), g.blocks_per_plane - 1);
        let mut opened = Vec::new();
        for _ in 0..g.blocks_per_plane - 1 {
            opened.push(a.allocate(0).unwrap().block);
            for _ in 1..g.pages_per_block {
                a.allocate(0).unwrap();
            }
        }
        // Fresh blocks 3.. first (block 2 was active and is full), then the
        // erased ones, oldest erase first.
        let mut expected: Vec<u32> = (3..g.blocks_per_plane as u32).collect();
        expected.extend([2, 0]);
        assert_eq!(opened, expected);
        assert!(a.allocate(0).is_none());
    }
}

/// Differential check of the flat allocator against the per-plane `Vec` free
/// list it replaced, which popped fresh blocks from the back and put erased
/// blocks back at the front.
#[cfg(test)]
mod reference_tests {
    use super::*;
    use proptest::prelude::*;

    /// One plane of the replaced allocator.
    #[derive(Debug, Clone)]
    struct ReferencePlane {
        free_blocks: Vec<u32>,
        active_block: Option<u32>,
        next_page: u32,
        valid_count: Vec<u16>,
        valid_bits: Vec<u128>,
        in_use: Vec<bool>,
    }

    impl ReferencePlane {
        fn new(blocks: usize) -> Self {
            ReferencePlane {
                free_blocks: (0..blocks as u32).rev().collect(),
                active_block: None,
                next_page: 0,
                valid_count: vec![0; blocks],
                valid_bits: vec![0; blocks],
                in_use: vec![false; blocks],
            }
        }

        fn allocate(&mut self, pages_per_block: u32) -> Option<(u32, u32)> {
            if self.active_block.is_none() || self.next_page >= pages_per_block {
                let block = self.free_blocks.pop()?;
                self.in_use[block as usize] = true;
                self.active_block = Some(block);
                self.next_page = 0;
            }
            let block = self.active_block?;
            let page = self.next_page;
            self.next_page += 1;
            Some((block, page))
        }

        fn mark_valid(&mut self, block: u32, page: u32) {
            let bit = 1u128 << page;
            if self.valid_bits[block as usize] & bit == 0 {
                self.valid_bits[block as usize] |= bit;
                self.valid_count[block as usize] += 1;
            }
        }

        fn mark_invalid(&mut self, block: u32, page: u32) {
            let bit = 1u128 << page;
            if self.valid_bits[block as usize] & bit != 0 {
                self.valid_bits[block as usize] &= !bit;
                self.valid_count[block as usize] -= 1;
            }
        }

        fn victim_block(&self) -> Option<u32> {
            let mut best: Option<(u32, u16)> = None;
            for block in 0..self.in_use.len() as u32 {
                if !self.in_use[block as usize] || self.active_block == Some(block) {
                    continue;
                }
                let valid = self.valid_count[block as usize];
                match best {
                    None => best = Some((block, valid)),
                    Some((_, best_valid)) if valid < best_valid => best = Some((block, valid)),
                    _ => {}
                }
            }
            best.map(|(block, _)| block)
        }

        fn erase_block(&mut self, block: u32) {
            self.valid_bits[block as usize] = 0;
            self.valid_count[block as usize] = 0;
            self.in_use[block as usize] = false;
            if self.active_block == Some(block) {
                self.active_block = None;
                self.next_page = 0;
            }
            self.free_blocks.insert(0, block);
        }
    }

    /// 16 planes of 4 blocks × 8 pages: small enough that the free ring
    /// wraps many times per case.
    fn geometry() -> FlashGeometry {
        FlashGeometry {
            blocks_per_plane: 4,
            ..FlashGeometry::small_test()
        }
    }

    /// Checks every observable of every plane, the never-touched ones
    /// included.
    fn assert_same(flat: &Allocator, reference: &[ReferencePlane]) {
        for (plane, expected) in reference.iter().enumerate() {
            prop_assert_eq!(flat.free_blocks(plane), expected.free_blocks.len());
            prop_assert_eq!(flat.victim_block(plane), expected.victim_block());
            for block in 0..expected.in_use.len() as u32 {
                prop_assert_eq!(
                    flat.valid_pages_in_block(plane, block),
                    expected.valid_count[block as usize] as usize
                );
                let offsets: Vec<u32> = flat.valid_page_offsets(plane, block).collect();
                let bits = expected.valid_bits[block as usize];
                let expected_offsets: Vec<u32> =
                    (0..128).filter(|page| bits >> page & 1 == 1).collect();
                prop_assert_eq!(offsets, expected_offsets);
            }
        }
        let live: u64 = reference
            .iter()
            .flat_map(|plane| plane.valid_count.iter().map(|&c| u64::from(c)))
            .sum();
        prop_assert_eq!(flat.total_valid_pages(), live);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random allocate / mark / erase / victim sequences on the first six
        /// planes; the other ten are never written and must read as fresh.
        #[test]
        fn flat_allocator_matches_the_vec_free_list(
            steps in prop::collection::vec((0u8..6, 0usize..6, 0u32..4, 0u32..8), 1..300),
        ) {
            let g = geometry();
            let pages_per_block = g.pages_per_block as u32;
            let mut flat = Allocator::new(g.clone(), AllocationPolicy::ChannelWayDiePlane);
            let mut reference = vec![ReferencePlane::new(g.blocks_per_plane); g.total_planes()];
            for (kind, plane, block, page) in steps {
                let loc = flat.plane_location(plane);
                let addr = PhysicalPageAddr {
                    channel: loc.channel,
                    way: loc.way,
                    die: loc.die,
                    plane: loc.plane,
                    block,
                    page,
                };
                let expected = &mut reference[plane];
                match kind {
                    // Allocate; the second kind also writes the page, as a
                    // host or GC write does.
                    0 | 1 => {
                        let got = flat.allocate(plane);
                        let want = expected.allocate(pages_per_block);
                        prop_assert_eq!(got.map(|a| (a.block, a.page)), want);
                        if let (Some(got), Some((block, page)), 1) = (got, want, kind) {
                            flat.mark_valid(got);
                            expected.mark_valid(block, page);
                        }
                    }
                    2 => {
                        flat.mark_invalid(addr);
                        expected.mark_invalid(block, page);
                    }
                    3 => {
                        flat.mark_valid(addr);
                        expected.mark_valid(block, page);
                    }
                    // Erase an in-use block (the only blocks GC erases).
                    4 => {
                        if expected.in_use[block as usize] {
                            flat.erase_block(plane, block);
                            expected.erase_block(block);
                        }
                    }
                    // Collect: erase the greedy victim, as GC does.
                    _ => {
                        let victim = flat.victim_block(plane);
                        prop_assert_eq!(victim, expected.victim_block());
                        if let Some(victim) = victim {
                            flat.erase_block(plane, victim);
                            expected.erase_block(victim);
                        }
                    }
                }
                assert_same(&flat, &reference);
            }
        }
    }
}
