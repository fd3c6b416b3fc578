//! Per-channel flash controllers.
//!
//! A flash controller owns the chips of one channel.  Committed memory requests are
//! delivered into per-chip pending sets; when a chip is idle the controller builds
//! a flash transaction by coalescing pending requests that target distinct
//! dies/planes of that chip (die interleaving + plane sharing), within the limits
//! the flash microarchitecture allows.  The more requests the scheduler has
//! over-committed for the chip, the higher the flash-level parallelism of the
//! transaction — this is exactly the mechanism FARO exploits.
//!
//! # Service order
//!
//! Each chip's pending set is kept sorted by the *service key*
//! `(!gc, delivered_at, id)`: GC traffic first, then oldest delivery, with the
//! memory-request id breaking same-instant ties.  Deliveries arrive in
//! simulated-time order, so [`FlashController::deliver`] almost always appends;
//! only a GC request overtaking host traffic, or a same-instant tie delivered
//! out of id order, is inserted further forward.
//!
//! With the set in service order a transaction build is one front-to-back
//! pass: the head of the set is the seed and fixes the operation, and the pass
//! accepts the first request of that operation for each free (die, plane),
//! stopping once every plane of the chip is taken.  The accepted requests are
//! then removed without reordering the rest, so the invariant survives the
//! build.  Debug builds assert the invariant on every delivery and build.

use serde::{Deserialize, Serialize};
use sprinkler_flash::{
    FlashGeometry, FlashOp, FlashTransaction, PhysicalPageAddr, TransactionBuilder,
};
use sprinkler_sim::{Duration, SimTime};

use crate::request::{MemReqId, TagId};

/// A memory request waiting at the controller to join a flash transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingRequest {
    /// The memory request's identifier.
    pub id: MemReqId,
    /// Fully resolved physical address.
    pub addr: PhysicalPageAddr,
    /// The flash operation required.
    pub op: FlashOp,
    /// When the request reached the controller.
    pub delivered_at: SimTime,
    /// Whether this is internal garbage-collection traffic (served with priority).
    pub gc: bool,
    /// The owning tag, if any.
    pub tag: Option<TagId>,
    /// Extra service delay (stale readdressing penalty for schedulers without a
    /// readdressing callback).
    pub extra_delay: Duration,
}

impl PendingRequest {
    /// The key a chip's pending set is ordered by: GC before host traffic,
    /// then oldest delivery, then id (unique, so the order is total).
    fn service_key(&self) -> (bool, SimTime, MemReqId) {
        (!self.gc, self.delivered_at, self.id)
    }
}

/// True when `queue` is sorted by the service key.
fn in_service_order(queue: &[PendingRequest]) -> bool {
    queue
        .windows(2)
        .all(|pair| pair[0].service_key() < pair[1].service_key())
}

/// The outcome of asking the controller to build a transaction for a chip.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltTransaction {
    /// The coalesced flash transaction.
    pub txn: FlashTransaction,
    /// The memory requests folded into it, in the same order as `txn.requests()`.
    pub members: Vec<MemReqId>,
    /// The largest extra delay among the members.
    pub extra_delay: Duration,
    /// True when any member is GC traffic.
    pub contains_gc: bool,
}

/// Reusable scratch for [`FlashController::build_transaction_with`].
///
/// The controller itself is serializable simulation state, so the scratch
/// lives with the caller (the SSD owns one) and is threaded through each
/// build.  Once its buffers and pools have grown to the coalescing high-water
/// mark, transaction building performs no allocations: the per-build `Vec`s
/// handed out inside [`BuiltTransaction`] come back through
/// [`TxnScratch::recycle_members`] / [`TxnScratch::recycle_requests`] once the
/// caller has copied out what it keeps.
#[derive(Debug, Default)]
pub struct TxnScratch {
    /// Pending-set indices accepted into the transaction, ascending (which is
    /// also builder order).
    accepted: Vec<usize>,
    /// Which (die, plane) slots of the chip the transaction already holds,
    /// indexed `die * planes_per_die + plane`.  A `Vec` rather than a bit
    /// word because the geometry sets no upper bound on dies × planes.
    taken: Vec<bool>,
    /// Recycled request buffers for [`TransactionBuilder::new_with_buffer`].
    request_pool: Vec<Vec<PhysicalPageAddr>>,
    /// Recycled member-id buffers for [`BuiltTransaction::members`].
    member_pool: Vec<Vec<MemReqId>>,
}

impl TxnScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a spent request buffer (from
    /// [`FlashTransaction::into_requests`]) to the pool.
    pub fn recycle_requests(&mut self, buffer: Vec<PhysicalPageAddr>) {
        self.request_pool.push(buffer);
    }

    /// Returns a spent member buffer (from [`BuiltTransaction::members`]) to
    /// the pool.
    pub fn recycle_members(&mut self, buffer: Vec<MemReqId>) {
        self.member_pool.push(buffer);
    }

    /// Pre-sizes every buffer to its structural bound so the scratch never
    /// grows on the hot path: `max_pending` bounds a chip's pending set (the
    /// per-chip commitment cap) and `max_fold` bounds a transaction's request
    /// count (distinct (die, plane) pairs).  The caller returns both of a
    /// build's buffers before the next build, so a pool of two covers it.
    pub fn preallocate(&mut self, max_pending: usize, max_fold: usize) {
        self.accepted.reserve(max_pending);
        self.taken.reserve(max_fold);
        while self.request_pool.len() < 2 {
            self.request_pool.push(Vec::with_capacity(max_fold));
        }
        while self.member_pool.len() < 2 {
            self.member_pool.push(Vec::with_capacity(max_fold));
        }
    }
}

/// The flash controller of one channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashController {
    channel: usize,
    ways: usize,
    /// One pending set per chip (way), made on the first delivery: a channel
    /// that is never used costs no allocation.
    pending: Vec<Vec<PendingRequest>>,
    delivered: u64,
    coalesced: u64,
}

impl FlashController {
    /// Creates the controller for `channel` with one pending set per chip (way).
    pub fn new(channel: usize, ways: usize) -> Self {
        FlashController {
            channel,
            ways,
            pending: Vec::new(),
            delivered: 0,
            coalesced: 0,
        }
    }

    /// The channel this controller drives.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// Delivers a memory request into the pending set of its chip, at its
    /// place in service order (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the request's address is not on this controller's channel.
    pub fn deliver(&mut self, request: PendingRequest) {
        assert_eq!(
            request.addr.channel as usize, self.channel,
            "request delivered to the wrong channel controller"
        );
        self.delivered += 1;
        if self.pending.is_empty() {
            self.pending.resize_with(self.ways, Vec::new);
        }
        let queue = &mut self.pending[request.addr.way as usize];
        let key = request.service_key();
        let at = queue.partition_point(|pending| pending.service_key() < key);
        queue.insert(at, request);
        debug_assert!(in_service_order(queue), "pending set left service order");
    }

    /// Number of requests pending for a chip (way) of this channel.
    pub fn pending_count(&self, way: usize) -> usize {
        self.pending.get(way).map_or(0, Vec::len)
    }

    /// True when a chip has at least one pending request.
    pub fn has_pending(&self, way: usize) -> bool {
        self.pending_count(way) > 0
    }

    /// Total pending requests across the channel.
    pub fn total_pending(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }

    /// Number of requests delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of requests that were coalesced into multi-request transactions.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Builds the best transaction currently possible for `way`, removing the
    /// selected requests from the pending set.  Returns `None` when nothing is
    /// pending.
    ///
    /// Selection rules:
    /// 1. GC traffic is served before host traffic.
    /// 2. The operation type of the oldest eligible request wins (reads and
    ///    programs are never mixed in one transaction).
    /// 3. Further requests of the same operation are folded in, in service
    ///    order, while they target distinct (die, plane) pairs — die
    ///    interleaving and plane sharing.
    pub fn build_transaction(
        &mut self,
        way: usize,
        geometry: &FlashGeometry,
    ) -> Option<BuiltTransaction> {
        let mut scratch = TxnScratch::new();
        self.build_transaction_with(way, geometry, &mut scratch)
    }

    /// [`FlashController::build_transaction`] with caller-provided scratch, so
    /// a warmed-up scratch makes the build allocation-free.
    pub fn build_transaction_with(
        &mut self,
        way: usize,
        geometry: &FlashGeometry,
        scratch: &mut TxnScratch,
    ) -> Option<BuiltTransaction> {
        let queue = self.pending.get_mut(way)?;
        debug_assert!(in_service_order(queue), "pending set left service order");
        // The head of the service-ordered set is the seed: GC first, then
        // oldest delivery.
        let op = queue.first()?.op;
        let planes_per_die = geometry.planes_per_die;
        let slots = geometry.dies_per_chip * planes_per_die;

        let mut builder = TransactionBuilder::new_with_buffer(
            op,
            geometry.clone(),
            scratch.request_pool.pop().unwrap_or_default(),
        );
        scratch.accepted.clear();
        scratch.taken.clear();
        scratch.taken.resize(slots, false);
        // One pass in service order: the first request of the seed's op for
        // each free (die, plane) joins.  The builder still validates each
        // joining address, so one outside the geometry is skipped as before.
        for (i, request) in queue.iter().enumerate() {
            if request.op != op {
                continue;
            }
            let slot = request.addr.die as usize * planes_per_die + request.addr.plane as usize;
            if scratch.taken.get(slot) != Some(&false) || builder.try_add(request.addr).is_err() {
                continue;
            }
            scratch.taken[slot] = true;
            scratch.accepted.push(i);
            if scratch.accepted.len() == slots {
                break;
            }
        }
        debug_assert!(!scratch.accepted.is_empty());
        let txn = builder.build().ok()?;
        if scratch.accepted.len() > 1 {
            self.coalesced += scratch.accepted.len() as u64;
        }

        let mut members = scratch.member_pool.pop().unwrap_or_default();
        members.clear();
        let mut extra_delay = Duration::ZERO;
        let mut contains_gc = false;
        for &i in &scratch.accepted {
            let request = &queue[i];
            members.push(request.id);
            extra_delay = extra_delay.max(request.extra_delay);
            contains_gc |= request.gc;
        }
        // Remove the accepted requests in one compaction that keeps the rest
        // in service order.
        let mut index = 0;
        let mut accepted = scratch.accepted.iter().peekable();
        queue.retain(|_| {
            let joined = accepted.next_if_eq(&&index).is_some();
            index += 1;
            !joined
        });
        debug_assert!(in_service_order(queue), "pending set left service order");
        Some(BuiltTransaction {
            txn,
            members,
            extra_delay,
            contains_gc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinkler_flash::ParallelismLevel;

    fn geometry() -> FlashGeometry {
        FlashGeometry::paper_default()
    }

    fn pending(
        id: u64,
        way: u32,
        die: u32,
        plane: u32,
        op: FlashOp,
        at: u64,
        gc: bool,
    ) -> PendingRequest {
        PendingRequest {
            id: MemReqId(id),
            addr: PhysicalPageAddr {
                channel: 0,
                way,
                die,
                plane,
                block: 1,
                page: 0,
            },
            op,
            delivered_at: SimTime::from_nanos(at),
            gc,
            tag: Some(TagId(id)),
            extra_delay: Duration::ZERO,
        }
    }

    #[test]
    fn empty_controller_builds_nothing() {
        let mut c = FlashController::new(0, 8);
        assert!(c.build_transaction(0, &geometry()).is_none());
        assert_eq!(c.total_pending(), 0);
        assert_eq!(c.channel(), 0);
    }

    #[test]
    fn single_request_builds_non_pal_transaction() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 2, 0, 0, FlashOp::Read, 10, false));
        assert_eq!(c.pending_count(2), 1);
        assert!(c.has_pending(2));
        let built = c.build_transaction(2, &geometry()).unwrap();
        assert_eq!(built.txn.parallelism(), ParallelismLevel::NonPal);
        assert_eq!(built.members, vec![MemReqId(1)]);
        assert!(!built.contains_gc);
        assert_eq!(c.pending_count(2), 0);
        assert_eq!(c.delivered(), 1);
        assert_eq!(c.coalesced(), 0);
    }

    #[test]
    fn coalesces_across_dies_and_planes() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 0, 1, FlashOp::Read, 11, false));
        c.deliver(pending(3, 0, 1, 0, FlashOp::Read, 12, false));
        c.deliver(pending(4, 0, 1, 1, FlashOp::Read, 13, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.txn.requests().len(), 4);
        assert_eq!(built.txn.parallelism(), ParallelismLevel::Pal3);
        assert_eq!(c.pending_count(0), 0);
        assert_eq!(c.coalesced(), 4);
    }

    #[test]
    fn plane_conflicts_stay_pending() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 0, 0, FlashOp::Read, 11, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.members, vec![MemReqId(1)]);
        assert_eq!(c.pending_count(0), 1);
        let second = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(second.members, vec![MemReqId(2)]);
    }

    #[test]
    fn different_ops_are_not_mixed() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 1, 0, FlashOp::Program, 11, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.txn.op(), FlashOp::Read);
        assert_eq!(built.members, vec![MemReqId(1)]);
        let next = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(next.txn.op(), FlashOp::Program);
    }

    #[test]
    fn oldest_request_decides_the_operation() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Program, 20, false));
        c.deliver(pending(2, 0, 1, 0, FlashOp::Read, 10, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.txn.op(), FlashOp::Read);
    }

    #[test]
    fn gc_traffic_is_prioritized() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 0, 1, FlashOp::Program, 50, true));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert!(built.contains_gc);
        assert_eq!(built.txn.op(), FlashOp::Program);
        assert_eq!(built.members, vec![MemReqId(2)]);
    }

    #[test]
    fn extra_delay_propagates_as_maximum() {
        let mut c = FlashController::new(0, 8);
        let mut a = pending(1, 0, 0, 0, FlashOp::Read, 10, false);
        a.extra_delay = Duration::from_micros(5);
        let mut b = pending(2, 0, 1, 0, FlashOp::Read, 11, false);
        b.extra_delay = Duration::from_micros(9);
        c.deliver(a);
        c.deliver(b);
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.extra_delay, Duration::from_micros(9));
    }

    #[test]
    #[should_panic(expected = "wrong channel")]
    fn wrong_channel_delivery_panics() {
        let mut c = FlashController::new(1, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
    }

    #[test]
    fn members_match_transaction_request_order() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(7, 0, 1, 3, FlashOp::Read, 10, false));
        c.deliver(pending(9, 0, 0, 2, FlashOp::Read, 12, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.members.len(), built.txn.requests().len());
        // The seed (oldest) request is first in both.
        assert_eq!(built.members[0], MemReqId(7));
        assert_eq!(built.txn.requests()[0].die, 1);
        assert_eq!(built.txn.requests()[0].plane, 3);
    }
}

/// Differential check of the one-pass build against the selection it
/// replaced: sort the chip's same-op candidates by service key with the seed
/// first, then offer every one to [`TransactionBuilder::try_add`].
#[cfg(test)]
mod service_order_tests {
    use super::*;
    use proptest::prelude::*;

    /// The members (with their addresses), `extra_delay` and `contains_gc` of
    /// one build.
    type Selection = (Vec<(MemReqId, PhysicalPageAddr)>, Duration, bool);

    /// The sort-then-`try_add` selection, run over an unordered pending set.
    fn reference_build(
        queue: &mut Vec<PendingRequest>,
        geometry: &FlashGeometry,
    ) -> Option<Selection> {
        let seed_index = queue
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.service_key())
            .map(|(i, _)| i)?;
        let op = queue[seed_index].op;
        let mut order: Vec<usize> = (0..queue.len()).filter(|&i| queue[i].op == op).collect();
        order.sort_by_key(|&i| (i != seed_index, queue[i].service_key()));
        let mut builder = TransactionBuilder::new(op, geometry.clone());
        let mut accepted = Vec::new();
        for &i in &order {
            if builder.try_add(queue[i].addr).is_ok() {
                accepted.push(i);
            }
        }
        builder.build().ok()?;
        let members = accepted
            .iter()
            .map(|&i| (queue[i].id, queue[i].addr))
            .collect();
        let extra_delay = accepted
            .iter()
            .map(|&i| queue[i].extra_delay)
            .max()
            .unwrap_or(Duration::ZERO);
        let contains_gc = accepted.iter().any(|&i| queue[i].gc);
        accepted.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &accepted {
            queue.swap_remove(i);
        }
        Some((members, extra_delay, contains_gc))
    }

    fn built_selection(built: &BuiltTransaction) -> Selection {
        let members = built
            .members
            .iter()
            .copied()
            .zip(built.txn.requests().iter().copied())
            .collect();
        (members, built.extra_delay, built.contains_gc)
    }

    /// Paper default (2 × 4 planes), the unit-test geometry (2 × 2), and a
    /// wide chip of 8 dies × 16 planes: more (die, plane) slots than a
    /// 64-bit mask holds.
    fn geometry_for(index: usize) -> FlashGeometry {
        match index {
            0 => FlashGeometry::paper_default(),
            1 => FlashGeometry::small_test(),
            _ => FlashGeometry {
                dies_per_chip: 8,
                planes_per_die: 16,
                ..FlashGeometry::small_test()
            },
        }
    }

    const OPS: [FlashOp; 3] = [FlashOp::Read, FlashOp::Program, FlashOp::Erase];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random interleavings of deliveries and builds: deliveries advance a
        /// clock by 0–2 ns (so same-instant ties are common) and carry ids out
        /// of delivery order; a third land on one hot plane.
        #[test]
        fn one_pass_build_matches_sort_then_try_add(
            geometry_index in 0usize..3,
            steps in prop::collection::vec(
                ((0u8..4, 0u32..16, 0u32..16, 0usize..3), (0u8..2, 0u64..3, 0u64..1000, 0u64..10)),
                1..240,
            ),
        ) {
            let geometry = geometry_for(geometry_index);
            let dies = geometry.dies_per_chip as u32;
            let planes = geometry.planes_per_die as u32;
            let mut controller = FlashController::new(0, 1);
            let mut reference: Vec<PendingRequest> = Vec::new();
            let mut scratch = TxnScratch::new();
            let mut now = 0u64;
            for (seq, ((kind, die, plane, op), (gc, dt, id_noise, delay))) in
                steps.into_iter().enumerate()
            {
                if kind == 3 {
                    let built = controller.build_transaction_with(0, &geometry, &mut scratch);
                    let expected = reference_build(&mut reference, &geometry);
                    prop_assert_eq!(built.as_ref().map(built_selection), expected);
                    let mut remaining = reference.clone();
                    remaining.sort_by_key(PendingRequest::service_key);
                    let pending = controller.pending.first().map_or(&[][..], Vec::as_slice);
                    prop_assert_eq!(pending, remaining.as_slice());
                    if let Some(built) = built {
                        scratch.recycle_requests(built.txn.into_requests());
                        scratch.recycle_members(built.members);
                    }
                    continue;
                }
                now += dt;
                let hot = kind == 0;
                let request = PendingRequest {
                    id: MemReqId(id_noise * 1_000 + seq as u64),
                    addr: PhysicalPageAddr {
                        channel: 0,
                        way: 0,
                        die: if hot { 0 } else { die % dies },
                        plane: if hot { 0 } else { plane % planes },
                        block: 1,
                        page: 0,
                    },
                    op: OPS[op],
                    delivered_at: SimTime::from_nanos(now),
                    gc: gc == 0,
                    tag: None,
                    extra_delay: Duration::from_nanos(delay),
                };
                controller.deliver(request.clone());
                reference.push(request);
            }
        }
    }

    /// A GC victim's valid-page reads all land on one plane: each build takes
    /// exactly one of them (the oldest) plus at most one host read from each
    /// other plane.
    #[test]
    fn gc_burst_on_one_plane_takes_one_gc_read_per_build() {
        let geometry = FlashGeometry::paper_default();
        let mut controller = FlashController::new(0, 1);
        let addr = |die: u32, plane: u32| PhysicalPageAddr {
            channel: 0,
            way: 0,
            die,
            plane,
            block: 3,
            page: 0,
        };
        let request = |id: u64, die: u32, plane: u32, at: u64, gc: bool| PendingRequest {
            id: MemReqId(id),
            addr: addr(die, plane),
            op: FlashOp::Read,
            delivered_at: SimTime::from_nanos(at),
            gc,
            tag: None,
            extra_delay: Duration::ZERO,
        };
        let mut next_host = 1_000;
        for (die, plane) in [(0, 1), (0, 2), (1, 0), (1, 3)] {
            for at in 0..3 {
                controller.deliver(request(next_host, die, plane, at, false));
                next_host += 1;
            }
        }
        for gc_read in 0..64 {
            controller.deliver(request(gc_read, 0, 0, 5, true));
        }
        for gc_read in 0..64 {
            let built = controller.build_transaction(0, &geometry).unwrap();
            let gc_members: Vec<_> = built.members.iter().filter(|id| id.0 < 1_000).collect();
            assert_eq!(gc_members, vec![&MemReqId(gc_read)]);
            assert!(built.contains_gc);
            let planes = built.txn.planes();
            assert_eq!(planes.len(), built.members.len(), "one request per plane");
            assert!(planes.contains(&(0, 0)));
        }
        // The host reads were served alongside: three per busy plane, gone by
        // the third build.
        assert_eq!(controller.pending_count(0), 0);
    }
}
