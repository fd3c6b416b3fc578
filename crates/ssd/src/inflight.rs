//! The in-flight memory-request arena.
//!
//! Every committed host page and every garbage-collection read, program and
//! erase is one in-flight [`MemoryRequest`] from the moment it is issued until
//! it completes.  [`InFlight`] keeps them in a dense slot arena with a free
//! list: a completed request's slot is reused by the next one issued, so the
//! arena holds exactly as many slots as the in-flight high-water mark, however
//! large the device.
//!
//! # Identifiers
//!
//! A [`MemReqId`] packs the request's *issue sequence number* into its high
//! bits and its slot into the low [`SLOT_BITS`]. Ids therefore still compare
//! in issue order (the controllers' service key breaks same-instant ties on
//! the id), and a lookup is one index plus one id comparison.  A stale id, one
//! whose request has completed, misses even after its slot is reused,
//! because the slot now holds a request with a later sequence number.

use sprinkler_flash::{Lpn, PhysicalPageAddr};

use crate::request::{MemReqId, MemoryRequest};

/// Low bits of a [`MemReqId`] that hold the arena slot (16 Mi slots, far
/// above any device's in-flight bound); the remaining 40 bits count issued
/// requests.
pub const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// The role a memory request plays in a garbage-collection job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GcRole {
    /// Reads a valid page of the victim; its program follows when it finishes.
    Read {
        job: usize,
        lpn: Lpn,
        to: PhysicalPageAddr,
    },
    /// Re-programs a migrated page at its new home.
    Program { job: usize },
    /// Erases the victim block, the job's last request.
    Erase { job: usize },
}

/// One occupied slot: the request and, for GC traffic, its role.
#[derive(Debug)]
pub(crate) struct Entry {
    pub request: MemoryRequest,
    pub role: Option<GcRole>,
}

/// Dense slot arena of in-flight memory requests (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct InFlight {
    slots: Vec<Option<Entry>>,
    /// Vacant slots, reused last-in first-out.
    free: Vec<u32>,
    /// Requests issued so far: the next request's sequence number.
    issued: u64,
}

impl InFlight {
    /// Issues a request: `make` builds it from its freshly assigned id.
    // lint: hot-path
    pub fn insert(
        &mut self,
        make: impl FnOnce(MemReqId) -> MemoryRequest,
        role: Option<GcRole>,
    ) -> MemReqId {
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                assert!(
                    (self.slots.len() as u64) <= SLOT_MASK,
                    "more than 2^{SLOT_BITS} memory requests in flight"
                );
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        let id = MemReqId(self.issued << SLOT_BITS | slot as u64);
        self.issued += 1;
        self.slots[slot] = Some(Entry {
            request: make(id),
            role,
        });
        id
    }

    /// The in-flight request `id`, if it has not completed.
    // lint: hot-path
    pub fn get(&self, id: MemReqId) -> Option<&Entry> {
        self.slots
            .get(slot_of(id))?
            .as_ref()
            .filter(|entry| entry.request.id == id)
    }

    /// Mutable access to the in-flight request `id`.
    // lint: hot-path
    pub fn get_mut(&mut self, id: MemReqId) -> Option<&mut Entry> {
        self.slots
            .get_mut(slot_of(id))?
            .as_mut()
            .filter(|entry| entry.request.id == id)
    }

    /// Completes request `id`, vacating its slot for the next one issued.
    // lint: hot-path
    pub fn remove(&mut self, id: MemReqId) -> Option<Entry> {
        let slot = slot_of(id);
        self.get(id)?;
        self.free.push(slot as u32);
        self.slots[slot].take()
    }

    /// Requests currently in flight.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots the arena holds: the in-flight high-water mark so far.
    #[cfg(test)]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

fn slot_of(id: MemReqId) -> usize {
    (id.0 & SLOT_MASK) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Direction, Placement};
    use sprinkler_sim::SimTime;

    fn gc_read(id: MemReqId) -> MemoryRequest {
        MemoryRequest::new_gc(
            id,
            Lpn::new(id.0),
            Direction::Read,
            Placement::from_addr(PhysicalPageAddr::default(), 1),
            SimTime::ZERO,
        )
    }

    #[test]
    fn a_completed_id_misses_after_its_slot_is_reused() {
        let mut arena = InFlight::default();
        let old = arena.insert(gc_read, None);
        assert!(arena.remove(old).is_some());
        let new = arena.insert(gc_read, None);
        assert_eq!(slot_of(old), slot_of(new), "the slot was reused");
        assert!(arena.get(old).is_none());
        assert!(arena.get_mut(old).is_none());
        assert!(arena.remove(old).is_none());
        assert_eq!(arena.get(new).map(|e| e.request.id), Some(new));
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn ids_ascend_in_issue_order_while_slots_recycle() {
        let mut arena = InFlight::default();
        let mut live = Vec::new();
        let mut issued = Vec::new();
        for step in 0..200u64 {
            // Complete an older request every other step, out of issue order,
            // so later ids land in low, recycled slots.
            if step % 2 == 1 && !live.is_empty() {
                let victim = live.swap_remove((step as usize * 7) % live.len());
                arena.remove(victim).expect("live request");
            }
            let id = arena.insert(gc_read, None);
            live.push(id);
            issued.push(id);
        }
        assert!(issued.windows(2).all(|pair| pair[0] < pair[1]));
        assert!(arena.slot_count() < issued.len(), "slots were recycled");
        assert_eq!(arena.len(), live.len());
    }

    /// A GC job's read → program → erase chain: each link completes and the
    /// next takes the vacated slot, and every role still reads back intact.
    #[test]
    fn gc_role_chains_survive_slot_reuse() {
        let mut arena = InFlight::default();
        let to = PhysicalPageAddr::default();
        let host = arena.insert(gc_read, None);
        let read = arena.insert(
            gc_read,
            Some(GcRole::Read {
                job: 3,
                lpn: Lpn::new(9),
                to,
            }),
        );
        arena.remove(host).expect("host request");
        let done = arena.remove(read).expect("read in flight");
        let Some(GcRole::Read { job, lpn, .. }) = done.role else {
            panic!("read role lost: {:?}", done.role);
        };
        assert_eq!((job, lpn), (3, Lpn::new(9)));
        let program = arena.insert(gc_read, Some(GcRole::Program { job }));
        assert_eq!(arena.slot_count(), 2, "the program reused a vacated slot");
        assert_eq!(
            arena.get(program).and_then(|e| e.role),
            Some(GcRole::Program { job: 3 })
        );
        arena.remove(program).expect("program in flight");
        let erase = arena.insert(gc_read, Some(GcRole::Erase { job }));
        assert!(arena.get(read).is_none() && arena.get(program).is_none());
        assert_eq!(
            arena.remove(erase).and_then(|e| e.role),
            Some(GcRole::Erase { job: 3 })
        );
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.slot_count(), 2);
    }
}
