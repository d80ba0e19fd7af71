//! Randomized tests on the coherence protocols: hit/miss invariants under
//! random access/migration traces, driven by the workspace RNG.

use olden_cache::{Access, Arrival, CacheSystem, Protocol};
use olden_rng::SplitMix64;

#[derive(Clone, Debug)]
enum Ev {
    Access {
        req: u8,
        home: u8,
        page: u64,
        line: u8,
        write: bool,
    },
    Depart {
        proc: u8,
    },
    ArriveCall {
        proc: u8,
    },
    ArriveReturn {
        proc: u8,
        written: Vec<u8>,
    },
}

/// One random event over `procs` processors, weighted 4:1:1:1 toward
/// accesses like the original proptest strategy.
fn random_event(r: &mut SplitMix64, procs: u8) -> Ev {
    match r.below(7) {
        0..=3 => loop {
            let req = r.below(procs as u64) as u8;
            let home = r.below(procs as u64) as u8;
            if req != home {
                return Ev::Access {
                    req,
                    home,
                    page: r.below(8),
                    line: r.below(32) as u8,
                    write: r.chance(0.5),
                };
            }
        },
        4 => Ev::Depart {
            proc: r.below(procs as u64) as u8,
        },
        5 => Ev::ArriveCall {
            proc: r.below(procs as u64) as u8,
        },
        _ => Ev::ArriveReturn {
            proc: r.below(procs as u64) as u8,
            written: (0..r.below(3))
                .map(|_| r.below(procs as u64) as u8)
                .collect(),
        },
    }
}

fn random_trace(r: &mut SplitMix64, procs: u8, max_len: usize) -> Vec<Ev> {
    let len = 1 + r.below(max_len as u64 - 1) as usize;
    (0..len).map(|_| random_event(r, procs)).collect()
}

/// A hit can only happen to a line that was fetched earlier and not
/// invalidated since — modelled independently with a set per
/// protocol-specific invalidation rule for the *local* scheme (the only
/// scheme whose invalidations are locally decidable).
#[test]
fn local_knowledge_hits_match_model() {
    let mut r = SplitMix64::new(0xCAC4E);
    for _ in 0..256 {
        let evs = random_trace(&mut r, 4, 80);
        let mut sys = CacheSystem::new(4, Protocol::LocalKnowledge);
        use std::collections::HashSet;
        let mut model: Vec<HashSet<(u8, u64, u8)>> = vec![HashSet::new(); 4];
        for ev in &evs {
            match ev {
                Ev::Access {
                    req,
                    home,
                    page,
                    line,
                    write,
                } => {
                    let key = (*home, *page, *line);
                    let expect_hit = model[*req as usize].contains(&key);
                    let got = sys.access(*req, *home, *page, *line, *write);
                    assert_eq!(matches!(got, Access::Hit), expect_hit, "access {:?}", ev);
                    model[*req as usize].insert(key);
                    if *write {
                        sys.note_write(*req, *home, *page, *line);
                    }
                }
                Ev::Depart { proc } => {
                    sys.depart(*proc, 30);
                }
                Ev::ArriveCall { proc } => {
                    sys.arrive(*proc, Arrival::Call);
                    model[*proc as usize].clear();
                }
                Ev::ArriveReturn { proc, written } => {
                    sys.arrive(
                        *proc,
                        Arrival::Return {
                            written_homes: written.iter().copied().collect(),
                        },
                    );
                    model[*proc as usize].retain(|(h, _, _)| !written.contains(h));
                }
            }
        }
        // Counter consistency.
        let s = sys.stats();
        assert_eq!(s.hits + s.misses, s.remote_reads + s.remote_writes);
    }
}

/// Under every protocol, immediately repeating an access hits.
#[test]
fn repeat_access_always_hits() {
    let mut r = SplitMix64::new(0xCAC4F);
    for _ in 0..256 {
        let proto = Protocol::ALL[r.below(3) as usize];
        let (req, home) = loop {
            let req = r.below(4) as u8;
            let home = r.below(4) as u8;
            if req != home {
                break (req, home);
            }
        };
        let page = r.below(16);
        let line = r.below(32) as u8;
        let mut sys = CacheSystem::new(4, proto);
        sys.access(req, home, page, line, false);
        assert_eq!(sys.access(req, home, page, line, false), Access::Hit);
    }
}

/// Pages-ever-cached is monotone and bounded by misses (each page
/// allocation is triggered by a miss).
#[test]
fn pages_bounded_by_misses() {
    let mut r = SplitMix64::new(0xCAC50);
    for _ in 0..128 {
        let evs = random_trace(&mut r, 4, 60);
        for proto in Protocol::ALL {
            let mut sys = CacheSystem::new(4, proto);
            for ev in &evs {
                if let Ev::Access {
                    req,
                    home,
                    page,
                    line,
                    write,
                } = ev
                {
                    sys.access(*req, *home, *page, *line, *write);
                }
            }
            assert!(sys.pages_cached() <= sys.stats().misses);
        }
    }
}
