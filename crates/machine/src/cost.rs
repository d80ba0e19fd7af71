//! Cycle-cost model of the simulated machine.
//!
//! The anchor is the paper's §4 footnote 3: "the cost of a migration is
//! about seven times that of a cache miss, the break-even path-affinity is
//! about 86%". We fix `miss_service = 420` cycles and make the end-to-end
//! migration cost exactly 7× that (2940 cycles, split between the sending
//! processor, the wire, and the receiving processor so that future stealing
//! frees the origin as soon as the send completes). Remaining constants are
//! plausible software-overhead figures for a CM-5-class active-message
//! runtime; only their ratios matter for the reproduced shapes.

/// Cycle costs charged by the runtime for each primitive operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CostModel {
    /// Local-versus-remote pointer test inserted before every dereference
    /// (§3.1). Zero in the sequential baseline.
    pub ptr_test: u64,
    /// Actual local load/store once an address is resolved (charged in
    /// both the Olden and sequential models).
    pub local_ref: u64,
    /// Software cache table lookup on a cached dereference (hash + chain
    /// walk + tag translation, §3.2). Charged hit or miss.
    pub cache_lookup: u64,
    /// Round-trip service time for a line miss (request + 64-byte line
    /// reply), charged to the requesting thread.
    pub miss_service: u64,
    /// Extra cost of the write-through message on a cached remote write.
    pub write_through: u64,
    /// Migration: marshalling and sending registers + PC + frame, charged
    /// to the origin processor's segment.
    pub mig_send: u64,
    /// Migration: wire latency (neither processor busy).
    pub mig_wire: u64,
    /// Migration: unmarshalling on the destination processor.
    pub mig_recv: u64,
    /// Return-stub migration (no frame is sent back, §3.1): origin side.
    pub ret_send: u64,
    /// Return-stub migration: wire latency.
    pub ret_wire: u64,
    /// Return-stub migration: destination side.
    pub ret_recv: u64,
    /// Saving a futurecall continuation on the work list (§2).
    pub future_spawn: u64,
    /// Touch of an already-resolved future.
    pub touch: u64,
    /// Grabbing a continuation from the work list after a migration
    /// (future stealing).
    pub steal: u64,
    /// `ALLOC` library call.
    pub alloc: u64,
}

impl CostModel {
    /// CM-5-flavoured Olden costs. `migration_total() == 7 * miss_service`.
    pub const fn cm5() -> CostModel {
        CostModel {
            ptr_test: 3,
            local_ref: 2,
            cache_lookup: 18,
            miss_service: 420,
            write_through: 30,
            mig_send: 1200,
            mig_wire: 540,
            mig_recv: 1200,
            ret_send: 600,
            ret_wire: 300,
            ret_recv: 600,
            future_spawn: 12,
            touch: 6,
            steal: 60,
            alloc: 25,
        }
    }

    /// The "true sequential implementation" baseline of Table 2: the same
    /// algorithm with no pointer tests, no future bookkeeping, and no
    /// communication (everything is local on one processor).
    pub const fn sequential() -> CostModel {
        CostModel {
            ptr_test: 0,
            local_ref: 2,
            cache_lookup: 0,
            miss_service: 0,
            write_through: 0,
            mig_send: 0,
            mig_wire: 0,
            mig_recv: 0,
            ret_send: 0,
            ret_wire: 0,
            ret_recv: 0,
            future_spawn: 0,
            touch: 0,
            steal: 0,
            alloc: 25,
        }
    }

    /// End-to-end cost of one thread migration.
    pub const fn migration_total(&self) -> u64 {
        self.mig_send + self.mig_wire + self.mig_recv
    }

    /// End-to-end cost of one remote line fetch (lookup + miss service).
    pub const fn remote_fetch_total(&self) -> u64 {
        self.cache_lookup + self.miss_service
    }

    /// The break-even path-affinity between migrating and caching for a
    /// regular traversal (§4 footnote 3). Traversing one step of a path
    /// with affinity `a`: migration pays `(1-a) * migration_total`,
    /// caching pays roughly `(1-a) * remote_fetch_total / (1-a)`-free...
    /// concretely the paper equates one migration against the stream of
    /// remote fetches it converts to local references, giving a break-even
    /// at `1 - fetch/migration`. With the 7× ratio this is ≈ 0.857.
    pub fn breakeven_affinity(&self) -> f64 {
        1.0 - self.remote_fetch_total() as f64 / self.migration_total() as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::cm5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_is_seven_times_a_miss() {
        let c = CostModel::cm5();
        assert_eq!(c.migration_total(), 7 * c.miss_service);
    }

    #[test]
    fn breakeven_matches_paper_footnote() {
        // §4 footnote 3: "the break-even path-affinity is about 86%".
        let b = CostModel::cm5().breakeven_affinity();
        assert!((0.84..=0.88).contains(&b), "break-even {b} outside 84-88%");
    }

    #[test]
    fn sequential_model_has_no_olden_overhead() {
        let s = CostModel::sequential();
        assert_eq!(s.ptr_test, 0);
        assert_eq!(s.migration_total(), 0);
        assert_eq!(s.remote_fetch_total(), 0);
        assert_eq!(s.future_spawn + s.touch + s.steal, 0);
        // But it still performs real memory references and allocations.
        assert!(s.local_ref > 0);
        assert!(s.alloc > 0);
    }

    #[test]
    fn default_is_cm5() {
        assert_eq!(CostModel::default(), CostModel::cm5());
    }
}
