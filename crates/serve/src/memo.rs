//! The server's task-level library memo.
//!
//! A campaign's [`ImplLibrary`] is a pure function of its application
//! and reliability scenario, so the server builds each
//! `(application, scenario)` library once and hands every campaign that
//! names the pair the same `Arc`:
//!
//! * **Single flight** — the first campaign to name a new pair builds
//!   it; concurrent campaigns naming the pair wait for that build
//!   instead of starting their own. The table lock is never held during
//!   a build.
//! * **Failed builds** — every waiter on a failed flight receives the
//!   same error, and the entry is removed, so no failure stays resident
//!   and the next submission retries.
//! * **Bounded** — at most `capacity` entries stay resident; inserting
//!   past it evicts the least recently used entry. A campaign still
//!   holding an evicted library keeps it alive until the campaign ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use clre::tdse::TdseHealth;
use clre::ImplLibrary;

/// A built library with the health counters its build reported.
pub type Built = (Arc<ImplLibrary>, TdseHealth);

/// One build, shared by everyone who asked for the key while it ran.
type Flight = OnceLock<Result<Built, String>>;

struct Slot {
    flight: Arc<Flight>,
    last_used: u64,
}

#[derive(Default)]
struct Table {
    entries: HashMap<String, Slot>,
    /// Monotone use counter; a slot's `last_used` orders eviction.
    clock: u64,
}

/// Counters of a [`LibraryMemo`], as reported on the server's `stats`
/// line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Lookups answered by a finished build.
    pub hits: u64,
    /// Builds run (failed ones included).
    pub builds: u64,
    /// Lookups that waited for another caller's build.
    pub waits: u64,
    /// Entries evicted to stay within the capacity.
    pub evictions: u64,
    /// Entries resident now, builds in flight included.
    pub resident: u64,
}

/// A bounded, single-flight map from a library key to its built
/// library. See the [module docs](self).
pub struct LibraryMemo {
    capacity: usize,
    table: Mutex<Table>,
    hits: AtomicU64,
    builds: AtomicU64,
    waits: AtomicU64,
    evictions: AtomicU64,
}

impl LibraryMemo {
    /// An empty memo keeping at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        LibraryMemo {
            capacity: capacity.max(1),
            table: Mutex::new(Table::default()),
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The library memoized under `key`, running `build` only if no
    /// finished or in-flight build of `key` is resident.
    ///
    /// # Errors
    ///
    /// The error of the build this call ran or waited for.
    pub fn get_or_build(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<Built, String>,
    ) -> Result<Built, String> {
        let flight = self.flight(key);
        if let Some(done) = flight.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return done.clone();
        }
        let mut built = false;
        let result = flight
            .get_or_init(|| {
                built = true;
                build()
            })
            .clone();
        if !built {
            self.waits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.builds.fetch_add(1, Ordering::Relaxed);
            if result.is_err() {
                let mut table = self.table.lock().expect("memo table poisoned");
                if table
                    .entries
                    .get(key)
                    .is_some_and(|slot| Arc::ptr_eq(&slot.flight, &flight))
                {
                    table.entries.remove(key);
                }
            }
        }
        result
    }

    /// The flight of `key`, inserted (evicting the least recently used
    /// other entry past the capacity) if absent.
    fn flight(&self, key: &str) -> Arc<Flight> {
        let mut table = self.table.lock().expect("memo table poisoned");
        table.clock += 1;
        let now = table.clock;
        if let Some(slot) = table.entries.get_mut(key) {
            slot.last_used = now;
            return Arc::clone(&slot.flight);
        }
        let flight = Arc::new(Flight::new());
        table.entries.insert(
            key.to_owned(),
            Slot {
                flight: Arc::clone(&flight),
                last_used: now,
            },
        );
        if table.entries.len() > self.capacity {
            let oldest = table
                .entries
                .iter()
                .filter(|(k, _)| k.as_str() != key)
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                table.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        flight
    }

    /// The memo's counters.
    pub fn counts(&self) -> MemoCounts {
        let resident = self
            .table
            .lock()
            .expect("memo table poisoned")
            .entries
            .len();
        MemoCounts {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: resident as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn library(seed: u64) -> Built {
        let (platform, graph) = clre::apps::synthetic_app(6, seed).unwrap();
        let (library, health) =
            clre::tdse::build_library_with_health(&graph, &platform, &Default::default()).unwrap();
        (Arc::new(library), health)
    }

    #[test]
    fn hits_share_one_arc_and_lru_evicts_the_oldest() {
        let memo = LibraryMemo::new(2);
        let a = memo.get_or_build("a", || Ok(library(1))).unwrap();
        let again = memo.get_or_build("a", || panic!("a is resident")).unwrap();
        assert!(Arc::ptr_eq(&a.0, &again.0), "a hit hands out the same Arc");
        memo.get_or_build("b", || Ok(library(2))).unwrap();
        // Touch a, so b is the least recently used when c arrives.
        memo.get_or_build("a", || panic!("a is resident")).unwrap();
        memo.get_or_build("c", || Ok(library(3))).unwrap();
        assert_eq!(
            memo.counts(),
            MemoCounts {
                hits: 2,
                builds: 3,
                waits: 0,
                evictions: 1,
                resident: 2,
            }
        );
        let mut rebuilt = false;
        memo.get_or_build("b", || {
            rebuilt = true;
            Ok(library(2))
        })
        .unwrap();
        assert!(rebuilt, "the evicted entry is rebuilt");
        // The evicted library stays alive while someone holds it.
        assert_eq!(a.0.type_count(), again.0.type_count());
    }
}
