//! Run configuration and the per-dereference mechanism choice.

use olden_cache::Protocol;
use olden_machine::CostModel;

/// The two remote-data-access mechanisms of §3. The Olden compiler's
/// heuristic (reproduced in `olden-analysis`) selects one per pointer
/// dereference; benchmark code passes the selected mechanism at each
/// access site.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mechanism {
    /// Computation migration: the thread moves to the data (§3.1).
    Migrate,
    /// Software caching: the data's line moves to the thread (§3.2).
    Cache,
}

impl Mechanism {
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Migrate => "migrate",
            Mechanism::Cache => "cache",
        }
    }
}

/// The static optimizer's verdict for one dereference site, carried by
/// benchmark code into the `*_checked` access methods.
///
/// `Elide` is a *hint with a proof obligation already discharged
/// statically*: the `olden-analysis` must-availability pass showed that on
/// every path to the site the same object was already checked and nothing
/// (migration, touch, release, reassignment, conflicting store) has
/// invalidated that fact. The runtime still verifies the fact cheaply
/// (a residence test it was going to pass anyway) and falls back to the
/// byte-exact `Perform` path when the hint is stale — values and coherence
/// behavior can never change, only the check/probe counters move.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Check {
    /// Run the compiler-inserted pointer test / cache lookup as usual.
    #[default]
    Perform,
    /// The optimizer proved the check redundant: take the fast path.
    Elide,
}

/// Configuration of one simulated run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Processor count.
    pub procs: usize,
    /// Cycle costs.
    pub cost: CostModel,
    /// Coherence protocol for the software cache.
    pub protocol: Protocol,
    /// When set, every dereference uses this mechanism regardless of what
    /// the benchmark requested — reproduces Table 2's "Migrate-only"
    /// column (and allows cache-only experiments).
    pub force: Option<Mechanism>,
    /// Check every heap access with the happens-before race sanitizer
    /// (the dynamic half of `olden-racecheck`). Off by default: it keeps
    /// two vector clocks per cache line touched.
    pub sanitize: bool,
    /// Honor [`Check::Elide`] verdicts at `*_checked` access sites. Off by
    /// default so every existing configuration keeps its exact cycle
    /// accounting; `forced` runs ignore it regardless (the verdicts were
    /// computed against the heuristic's mechanism assignment, which a
    /// force override invalidates wholesale).
    pub elide_checks: bool,
    /// Capture an `olden-obs` event recording of the run (migrations,
    /// line fetches, future bodies, …), returned in
    /// [`RunReport::recording`](crate::RunReport). Off by default: the
    /// hooks are a branch-on-`None` when disabled, so plain runs pay
    /// nothing.
    pub record: bool,
}

impl Config {
    /// An Olden machine with `procs` processors, CM-5 costs, and the local
    /// knowledge coherence scheme the paper's results use.
    pub fn olden(procs: usize) -> Config {
        Config {
            procs,
            cost: CostModel::cm5(),
            protocol: Protocol::LocalKnowledge,
            force: None,
            sanitize: false,
            elide_checks: false,
            record: false,
        }
    }

    /// The sequential baseline: one processor, no Olden overheads.
    pub fn sequential() -> Config {
        Config {
            procs: 1,
            cost: CostModel::sequential(),
            protocol: Protocol::LocalKnowledge,
            force: None,
            sanitize: false,
            elide_checks: false,
            record: false,
        }
    }

    /// Same configuration with a forced mechanism.
    pub fn forced(mut self, m: Mechanism) -> Config {
        self.force = Some(m);
        self
    }

    /// Same configuration with the happens-before sanitizer on.
    pub fn sanitized(mut self) -> Config {
        self.sanitize = true;
        self
    }

    /// Same configuration under a different coherence protocol.
    pub fn with_protocol(mut self, p: Protocol) -> Config {
        self.protocol = p;
        self
    }

    /// Same configuration with the static optimizer's check elisions
    /// honored.
    pub fn optimized(mut self) -> Config {
        self.elide_checks = true;
        self
    }

    /// Same configuration with event recording on.
    pub fn recorded(mut self) -> Config {
        self.record = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let c = Config::olden(32).forced(Mechanism::Migrate);
        assert_eq!(c.procs, 32);
        assert_eq!(c.force, Some(Mechanism::Migrate));
        let c = Config::olden(8).with_protocol(Protocol::Bilateral);
        assert_eq!(c.protocol, Protocol::Bilateral);
        assert!(Config::sequential().cost.ptr_test == 0);
        assert!(!Config::olden(4).elide_checks);
        assert!(Config::olden(4).optimized().elide_checks);
        assert!(!Config::olden(4).record);
        assert!(Config::olden(4).recorded().record);
        assert_eq!(Check::default(), Check::Perform);
    }

    #[test]
    fn mechanism_names() {
        assert_eq!(Mechanism::Migrate.name(), "migrate");
        assert_eq!(Mechanism::Cache.name(), "cache");
    }
}
