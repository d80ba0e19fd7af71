//! The write epoch: what one thread wrote since its last release, and what
//! that release therefore has to do.
//!
//! The epoch travels with the *thread*, not with a processor: it is the
//! thread-side half of the write-tracking code of Appendix A, and a
//! migration send (the release) drains it.

use crate::protocol::Protocol;
use olden_gptr::{LineInPage, PageNum, ProcId};
use std::collections::HashMap;

/// Lines written since the last release: (home, page) → line mask. Always
/// empty under local knowledge. `Clone` lets a future body that runs on
/// its own OS thread continue its spawner's epoch.
#[derive(Clone, Debug, Default)]
pub struct WriteEpoch {
    dirty: HashMap<(ProcId, PageNum), u32>,
}

/// One written page of a global-knowledge release.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DirtyPage {
    pub home: ProcId,
    pub page: PageNum,
    /// The lines of the page written this epoch.
    pub mask: u32,
}

/// What a release must do, in the deterministic order it must do it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Release {
    /// Local knowledge, or an epoch without writes.
    Nothing,
    /// Global knowledge: for each page, ascending by (home, page), read
    /// the home's sharer list and invalidate `mask` at every sharer in
    /// [`invalidation_targets`].
    Invalidate(Vec<DirtyPage>),
    /// Bilateral: for each home, ascending, bump the timestamps of these
    /// pages (ascending).
    Bump(Vec<(ProcId, Vec<PageNum>)>),
}

impl WriteEpoch {
    /// The thread side of the write-tracking code: remember the line.
    pub fn note_write(
        &mut self,
        protocol: Protocol,
        home: ProcId,
        page: PageNum,
        line: LineInPage,
    ) {
        if protocol.tracks_writes() {
            *self.dirty.entry((home, page)).or_insert(0) |= 1u32 << line;
        }
    }

    /// End the epoch at a release, leaving it empty.
    pub fn drain(&mut self, protocol: Protocol) -> Release {
        if self.dirty.is_empty() {
            return Release::Nothing;
        }
        let mut dirty: Vec<DirtyPage> = self
            .dirty
            .drain()
            .map(|((home, page), mask)| DirtyPage { home, page, mask })
            .collect();
        dirty.sort_unstable_by_key(|d| (d.home, d.page));
        match protocol {
            // `note_write` keeps the map empty; nothing reaches here.
            Protocol::LocalKnowledge => Release::Nothing,
            Protocol::GlobalKnowledge => Release::Invalidate(dirty),
            Protocol::Bilateral => {
                let mut by_home: Vec<(ProcId, Vec<PageNum>)> = Vec::new();
                for d in dirty {
                    match by_home.last_mut() {
                        Some((home, pages)) if *home == d.home => pages.push(d.page),
                        _ => by_home.push((d.home, vec![d.page])),
                    }
                }
                Release::Bump(by_home)
            }
        }
    }
}

/// The sharers a global-knowledge release pushes an invalidation to: all
/// but the releasing processor, whose own copy is current.
pub fn invalidation_targets(
    sharers: &[ProcId],
    releaser: ProcId,
) -> impl Iterator<Item = ProcId> + '_ {
    sharers.iter().copied().filter(move |&s| s != releaser)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(p: Protocol) -> WriteEpoch {
        let mut e = WriteEpoch::default();
        for (home, page, line) in [(2, 9, 1), (1, 7, 0), (2, 3, 4), (1, 7, 31), (0, 8, 2)] {
            e.note_write(p, home, page, line);
        }
        e
    }

    #[test]
    fn drain_is_sorted_and_empties_the_map() {
        let mut e = written(Protocol::GlobalKnowledge);
        let page = |home, page, mask| DirtyPage { home, page, mask };
        assert_eq!(
            e.drain(Protocol::GlobalKnowledge),
            Release::Invalidate(vec![
                page(0, 8, 1 << 2),
                page(1, 7, 1 | (1 << 31)),
                page(2, 3, 1 << 4),
                page(2, 9, 1 << 1),
            ])
        );
        assert_eq!(e.drain(Protocol::GlobalKnowledge), Release::Nothing);

        let mut e = written(Protocol::Bilateral);
        assert_eq!(
            e.drain(Protocol::Bilateral),
            Release::Bump(vec![(0, vec![8]), (1, vec![7]), (2, vec![3, 9])])
        );
        assert_eq!(e.drain(Protocol::Bilateral), Release::Nothing);
    }

    #[test]
    fn local_knowledge_never_has_anything_to_release() {
        let mut e = written(Protocol::LocalKnowledge);
        assert!(e.dirty.is_empty());
        assert_eq!(e.drain(Protocol::LocalKnowledge), Release::Nothing);
    }

    /// Parallel mode hands a forked body a clone of its spawner's epoch.
    #[test]
    fn a_cloned_epoch_drains_independently() {
        let g = Protocol::GlobalKnowledge;
        let mut spawner = WriteEpoch::default();
        spawner.note_write(g, 1, 7, 0);
        let mut body = spawner.clone();
        body.note_write(g, 1, 7, 5);
        let page = |mask| DirtyPage {
            home: 1,
            page: 7,
            mask,
        };
        assert_eq!(body.drain(g), Release::Invalidate(vec![page(1 | (1 << 5))]));
        assert_eq!(spawner.drain(g), Release::Invalidate(vec![page(1)]));
    }

    #[test]
    fn the_releaser_is_not_an_invalidation_target() {
        let targets: Vec<ProcId> = invalidation_targets(&[3, 1, 2], 1).collect();
        assert_eq!(targets, [3, 2]);
    }
}
