//! Sharded, lock-striped query-result cache.
//!
//! Keys are the result-shape-pinning cache keys of
//! [`simba_sql::query_cache_key`]: spelling variants issued by different
//! users (case differences, whitespace, reordered conjuncts, folded
//! constants) all hit one entry, while anything that changes the result's
//! column layout (reordered or re-aliased projections, `SUM/COUNT` vs
//! `AVG` output names) gets its own — a hit is always returnable verbatim.
//! The map is striped across [`CacheConfig::shards`] independently
//! locked shards so concurrent sessions rarely contend; hits take only a
//! shard read-lock (recency is tracked with a per-entry atomic, not a lock).
//! Each shard holds at most `capacity_per_shard` entries and evicts its
//! least-recently-used entry on overflow. Nothing invalidates an entry: the
//! driver builds one cache per run, over tables registered before the run
//! starts, and drops it with the run.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use serde::{Deserialize, Serialize};
use simba_engine::{EngineError, ExecStats, QueryOutput};
use simba_sql::{query_cache_key, Select};
use simba_store::ResultSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Cache sizing, and the `cache` block of a scenario spec file as-is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of lock stripes (rounded up to a power of two).
    pub shards: usize,
    /// Maximum entries per shard.
    pub capacity_per_shard: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            capacity_per_shard: 128,
        }
    }
}

/// Monotonic counters, read with [`ShardedResultCache::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Misses that waited on another caller's in-flight execution of the
    /// same key instead of running the engine themselves (single-flight).
    pub coalesced: u64,
    /// Leader executions that ended in an error. Errors are **never
    /// cached** — the failure is handed to this flight's followers and
    /// then forgotten, so the next caller re-executes rather than being
    /// served a remembered failure.
    pub error_passthrough: u64,
}

impl CacheStats {
    /// Hits over lookups, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A cached execution result (everything except the per-call latency).
#[derive(Debug)]
pub struct CachedResult {
    pub result: ResultSet,
    pub stats: ExecStats,
}

struct Entry {
    value: Arc<CachedResult>,
    /// Logical clock of the last lookup; bumped under the shard read-lock.
    last_used: AtomicU64,
}

/// A single-flight slot: the first caller to miss a key executes the
/// engine; everyone else blocks here until the leader publishes.
struct Flight {
    outcome: Mutex<Option<Result<Arc<CachedResult>, EngineError>>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, outcome: Result<Arc<CachedResult>, EngineError>) {
        // Poison recovery, not `expect`: the slot only ever transitions
        // `None -> Some(..)` in a single assignment, so a thread that
        // panicked while holding this lock cannot have left it
        // half-written. Panicking here instead would cascade the leader's
        // failure into every coalesced follower's worker thread.
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(outcome);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Arc<CachedResult>, EngineError> {
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*slot {
                Some(outcome) => return outcome.clone(),
                None => {
                    slot = self
                        .ready
                        .wait(slot)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

/// Unblocks single-flight followers if the leader unwinds mid-execution:
/// retires the flight and publishes an error so waiters fail fast instead
/// of parking on the condvar forever (which would hang the driver's thread
/// scope rather than propagate the panic).
struct LeaderGuard<'a> {
    inflight: &'a Mutex<HashMap<String, Arc<Flight>>>,
    key: &'a str,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Recover a poisoned lock rather than `expect`: panicking in a
        // drop that runs during unwinding would abort the process, and the
        // map is structurally sound regardless (remove/insert are the only
        // mutations).
        let mut map = match self.inflight.lock() {
            Ok(map) => map,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(flight) = map.remove(self.key) {
            flight.publish(Err(EngineError::Internal(
                "single-flight leader panicked before publishing".to_string(),
            )));
        }
    }
}

/// The cache. Shareable across threads (`Arc<ShardedResultCache>`).
pub struct ShardedResultCache {
    shards: Vec<RwLock<HashMap<String, Entry>>>,
    /// Keys currently being executed by a leader, striped like `shards`.
    inflight: Vec<Mutex<HashMap<String, Arc<Flight>>>>,
    capacity_per_shard: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
    error_passthrough: AtomicU64,
}

impl ShardedResultCache {
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        ShardedResultCache {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            inflight: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity_per_shard: config.capacity_per_shard.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            error_passthrough: AtomicU64::new(0),
        }
    }

    fn shard_index(&self, key: &str) -> usize {
        // FNV-1a; shard count is a power of two so masking is uniform.
        let mut h = simba_store::mix::Fnv1a::new();
        h.write(key.as_bytes());
        (h.finish() as usize) & (self.shards.len() - 1)
    }

    fn shard_of(&self, key: &str) -> &RwLock<HashMap<String, Entry>> {
        #[expect(
            clippy::indexing_slicing,
            reason = "shard_index masks by the power-of-two shard count, so the index is in range by construction"
        )]
        &self.shards[self.shard_index(key)]
    }

    /// Recover a shard's map from a poisoned lock. A panic while a guard
    /// was held cannot corrupt the `HashMap` structurally (insert/remove
    /// don't unwind mid-rebalance), and the worst observable state —
    /// a stale-but-valid entry — is exactly what a cache is allowed to
    /// serve. Propagating the poison would instead fail every later query
    /// that hashes to this shard.
    fn read_shard<'a>(
        shard: &'a RwLock<HashMap<String, Entry>>,
    ) -> std::sync::RwLockReadGuard<'a, HashMap<String, Entry>> {
        shard.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-lock twin of [`read_shard`](Self::read_shard).
    fn write_shard<'a>(
        shard: &'a RwLock<HashMap<String, Entry>>,
    ) -> std::sync::RwLockWriteGuard<'a, HashMap<String, Entry>> {
        shard.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a key, bumping its recency. Counts a hit or a miss.
    pub fn lookup(&self, key: &str) -> Option<Arc<CachedResult>> {
        let shard = Self::read_shard(self.shard_of(key));
        match shard.get(key) {
            Some(entry) => {
                entry.last_used.store(
                    self.clock.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Read a key without touching the hit/miss counters (used for the
    /// double-check inside the single-flight path, where the original
    /// lookup already counted the miss).
    fn peek(&self, key: &str) -> Option<Arc<CachedResult>> {
        let shard = Self::read_shard(self.shard_of(key));
        shard.get(key).map(|entry| {
            entry.last_used.store(
                self.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            entry.value.clone()
        })
    }

    /// Insert (or replace) an entry, evicting the shard's LRU entry when at
    /// capacity.
    pub fn insert(&self, key: String, value: Arc<CachedResult>) {
        let mut shard = Self::write_shard(self.shard_of(&key));
        if let Some(existing) = shard.get_mut(&key) {
            existing.value = value;
            return;
        }
        if shard.len() >= self.capacity_per_shard {
            // Minimizing over `(last_used, key)` is order-insensitive: the
            // logical clock makes `last_used` unique in practice, and the
            // key tie-break pins the winner even if two entries ever carry
            // the same tick — which entry is evicted never depends on the
            // hasher's iteration order.
            #[expect(
                clippy::disallowed_methods,
                reason = "min over the totally ordered (last_used, key) pair; iteration order cannot change the winner"
            )]
            let lru = shard
                .iter()
                .min_by(|(ka, ea), (kb, eb)| {
                    ea.last_used
                        .load(Ordering::Relaxed)
                        .cmp(&eb.last_used.load(Ordering::Relaxed))
                        .then_with(|| ka.cmp(kb))
                })
                .map(|(k, _)| k.clone());
            if let Some(k) = lru {
                shard.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let last_used = self.clock.fetch_add(1, Ordering::Relaxed);
        shard.insert(
            key,
            Entry {
                value,
                last_used: AtomicU64::new(last_used),
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Execute through the cache. Returns the result, the latency this
    /// caller observed (key construction + lookup on a hit, engine latency
    /// on a miss, wait time when coalesced onto another caller's in-flight
    /// execution), and whether the result came from memory rather than this
    /// caller's own engine run.
    ///
    /// Misses are **single-flight**: concurrent misses on one key elect a
    /// leader that calls `run` exactly once while the rest block on its
    /// `Flight` — without this, every concurrent session redundantly
    /// executes the same query, inflating engine load (and adaptive-mode
    /// latency) on popular keys. `run` is the caller's whole execution
    /// strategy: the driver passes its retry loop, so a follower coalesced
    /// onto a flaky key observes the leader's post-retry outcome, never the
    /// raw first failure.
    pub fn execute_cached(
        &self,
        query: &Select,
        run: impl FnOnce() -> Result<QueryOutput, EngineError>,
    ) -> Result<(Arc<CachedResult>, Duration, bool), EngineError> {
        let _span = simba_obs::trace::span("cache.execute", "cache");
        // Key construction (AST normalization + printing) is the dominant
        // cost of a hit — time it, or cache-on latency reports understate
        // the real per-query cost.
        #[expect(
            clippy::disallowed_methods,
            reason = "hit/wait latency is this layer's measured deliverable, surfaced via obs phases; it never reaches fingerprints"
        )]
        let start = Instant::now();
        let lookup_phase = simba_obs::phase!("cache.lookup", "cache", "cache.phase.lookup");
        let key = query_cache_key(query);
        if let Some(value) = self.lookup(&key) {
            return Ok((value, start.elapsed(), true));
        }
        drop(lookup_phase);
        // Miss (counted). Join an in-flight execution of this key, or
        // become its leader.
        #[expect(
            clippy::indexing_slicing,
            reason = "shard_index masks by the power-of-two stripe count, so the index is in range by construction"
        )]
        let inflight = &self.inflight[self.shard_index(&key)];
        let flight = {
            // Poisoned-lock recovery throughout the inflight map: its only
            // mutations are insert/remove, so the map is structurally
            // sound after a panic; failing here would take this worker
            // down for an infrastructure fault another thread caused.
            let mut map = inflight.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(flight) = map.get(&key) {
                Some(flight.clone())
            } else {
                // A leader that finished between our lookup and this lock
                // has already populated the cache — re-check before
                // electing ourselves (peek: the miss was already counted).
                if let Some(value) = self.peek(&key) {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    return Ok((value, start.elapsed(), true));
                }
                map.insert(key.clone(), Arc::new(Flight::new()));
                None
            }
        };
        if let Some(flight) = flight {
            // Follower: wait for the leader's verdict.
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let value = {
                let _p = simba_obs::phase!("cache.wait", "cache", "cache.phase.wait");
                flight.wait()?
            };
            return Ok((value, start.elapsed(), true));
        }
        // Leader: run the engine, publish to cache + followers, then retire
        // the flight (cache-first, so late arrivals always find the value).
        // The guard retires the flight with an error if the engine panics —
        // otherwise followers would block on the condvar forever and the
        // driver's thread scope would hang instead of propagating the
        // panic.
        let mut guard = LeaderGuard {
            inflight,
            key: &key,
            armed: true,
        };
        let outcome = run().map(|out| {
            let value = Arc::new(CachedResult {
                result: out.result,
                stats: out.stats,
            });
            self.insert(key.clone(), value.clone());
            (value, out.elapsed)
        });
        if outcome.is_err() {
            // Negative-result policy: errors pass through uncached (the
            // next caller re-executes), but are counted so a flaky engine
            // shows up in the cache report rather than vanishing.
            self.error_passthrough.fetch_add(1, Ordering::Relaxed);
        }
        let mut map = inflight.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(flight) = map.remove(&key) {
            flight.publish(
                outcome
                    .as_ref()
                    .map(|(v, _)| v.clone())
                    .map_err(Clone::clone),
            );
        }
        guard.armed = false;
        drop(map);
        outcome.map(|(value, elapsed)| (value, elapsed, false))
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            error_passthrough: self.error_passthrough.load(Ordering::Relaxed),
        }
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::read_shard(s).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_engine::Dbms;

    fn result_of(n: i64) -> Arc<CachedResult> {
        Arc::new(CachedResult {
            result: ResultSet::new(
                vec!["n".to_string()],
                vec![vec![simba_store::Value::Int(n)]],
            ),
            stats: ExecStats::default(),
        })
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = ShardedResultCache::new(CacheConfig::default());
        assert!(cache.lookup("a").is_none());
        cache.insert("a".to_string(), result_of(1));
        assert!(cache.lookup("a").is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = ShardedResultCache::new(CacheConfig {
            shards: 1,
            capacity_per_shard: 2,
        });
        cache.insert("a".to_string(), result_of(1));
        cache.insert("b".to_string(), result_of(2));
        assert!(cache.lookup("a").is_some()); // "a" is now more recent than "b"
        cache.insert("c".to_string(), result_of(3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            cache.lookup("b").is_none(),
            "LRU entry should have been evicted"
        );
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("c").is_some());
    }

    #[test]
    fn replacement_does_not_evict() {
        let cache = ShardedResultCache::new(CacheConfig {
            shards: 1,
            capacity_per_shard: 2,
        });
        cache.insert("a".to_string(), result_of(1));
        cache.insert("a".to_string(), result_of(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        let v = cache.lookup("a").unwrap();
        assert_eq!(
            v.result.sorted_rows(),
            vec![vec![simba_store::Value::Int(2)]]
        );
    }

    /// A leader that panics inside `engine.execute` must retire its flight
    /// on unwind; otherwise the next caller (or any blocked follower)
    /// waits on the dead flight forever.
    #[test]
    fn leader_panic_retires_flight_instead_of_wedging_followers() {
        struct PanickingEngine;
        impl Dbms for PanickingEngine {
            fn name(&self) -> &'static str {
                "panicking-stub"
            }
            fn register(&self, _table: Arc<simba_store::Table>) {}
            fn execute(&self, _query: &Select) -> Result<QueryOutput, EngineError> {
                panic!("injected engine bug");
            }
        }
        let cache = ShardedResultCache::new(CacheConfig::default());
        let q = simba_sql::parse_select("SELECT n FROM t").unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.execute_cached(&q, || PanickingEngine.execute(&q))
        }));
        assert!(unwound.is_err(), "the leader's panic propagates");
        // The flight was retired on unwind: a fresh caller elects itself
        // leader and succeeds instead of parking on the dead flight. (If
        // the guard were missing, this call would hang the test forever.)
        struct OkEngine;
        impl Dbms for OkEngine {
            fn name(&self) -> &'static str {
                "ok-stub"
            }
            fn register(&self, _table: Arc<simba_store::Table>) {}
            fn execute(&self, _query: &Select) -> Result<QueryOutput, EngineError> {
                Ok(QueryOutput {
                    result: ResultSet::new(
                        vec!["n".to_string()],
                        vec![vec![simba_store::Value::Int(2)]],
                    ),
                    stats: ExecStats::default(),
                    elapsed: Duration::from_micros(1),
                })
            }
        }
        let (value, _elapsed, hit) = cache.execute_cached(&q, || OkEngine.execute(&q)).unwrap();
        assert!(!hit);
        assert_eq!(
            value.result.sorted_rows(),
            vec![vec![simba_store::Value::Int(2)]]
        );
    }

    /// Negative-result policy: an erroring leader must not seed the cache
    /// with its failure — the next caller (a healthy retry of the same
    /// key) re-executes and caches normally, and followers of *that*
    /// flight see the good result.
    #[test]
    fn erroring_leader_does_not_poison_later_callers() {
        use std::sync::atomic::AtomicBool;
        struct FlakyOnce {
            failed: AtomicBool,
        }
        impl Dbms for FlakyOnce {
            fn name(&self) -> &'static str {
                "flaky-once-stub"
            }
            fn register(&self, _table: Arc<simba_store::Table>) {}
            fn execute(&self, _query: &Select) -> Result<QueryOutput, EngineError> {
                if !self.failed.swap(true, Ordering::SeqCst) {
                    return Err(EngineError::Transient("first call drops".to_string()));
                }
                Ok(QueryOutput {
                    result: ResultSet::new(
                        vec!["n".to_string()],
                        vec![vec![simba_store::Value::Int(7)]],
                    ),
                    stats: ExecStats::default(),
                    elapsed: Duration::from_micros(1),
                })
            }
        }
        let cache = ShardedResultCache::new(CacheConfig::default());
        let q = simba_sql::parse_select("SELECT n FROM t").unwrap();
        let engine = FlakyOnce {
            failed: AtomicBool::new(false),
        };
        let err = cache.execute_cached(&q, || engine.execute(&q)).unwrap_err();
        assert!(err.is_transient());
        assert!(cache.is_empty(), "errors must never be cached");
        assert_eq!(cache.stats().error_passthrough, 1);

        let (value, _elapsed, hit) = cache.execute_cached(&q, || engine.execute(&q)).unwrap();
        assert!(!hit, "the retry re-executes instead of replaying the error");
        assert_eq!(
            value.result.sorted_rows(),
            vec![vec![simba_store::Value::Int(7)]]
        );
        assert_eq!(cache.stats().insertions, 1);
        // And now the key serves hits like any healthy entry.
        let (_, _, hit) = cache.execute_cached(&q, || engine.execute(&q)).unwrap();
        assert!(hit);
    }

    /// `execute_cached` runs the caller's strategy as the leader: a retry
    /// loop inside it converts a transient first failure into a success
    /// that followers and later callers observe.
    #[test]
    fn leader_retry_strategy_hides_transient_failures_from_the_cache() {
        use std::sync::atomic::AtomicU64;
        struct FlakyTwice {
            calls: AtomicU64,
        }
        impl Dbms for FlakyTwice {
            fn name(&self) -> &'static str {
                "flaky-twice-stub"
            }
            fn register(&self, _table: Arc<simba_store::Table>) {}
            fn execute(&self, _query: &Select) -> Result<QueryOutput, EngineError> {
                if self.calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    return Err(EngineError::Transient("warming up".to_string()));
                }
                Ok(QueryOutput {
                    result: ResultSet::new(
                        vec!["n".to_string()],
                        vec![vec![simba_store::Value::Int(9)]],
                    ),
                    stats: ExecStats::default(),
                    elapsed: Duration::from_micros(1),
                })
            }
        }
        let cache = ShardedResultCache::new(CacheConfig::default());
        let q = simba_sql::parse_select("SELECT n FROM t").unwrap();
        let engine = FlakyTwice {
            calls: AtomicU64::new(0),
        };
        let mut attempts = 0u32;
        let (value, _elapsed, hit) = cache
            .execute_cached(&q, || loop {
                attempts += 1;
                match engine.execute(&q) {
                    Ok(out) => return Ok(out),
                    Err(err) if err.is_transient() && attempts < 4 => continue,
                    Err(err) => return Err(err),
                }
            })
            .unwrap();
        assert!(!hit);
        assert_eq!(attempts, 3, "two transient failures were retried away");
        assert_eq!(
            value.result.sorted_rows(),
            vec![vec![simba_store::Value::Int(9)]]
        );
        let stats = cache.stats();
        assert_eq!(
            stats.error_passthrough, 0,
            "the flight's outcome is the post-retry success"
        );
        assert_eq!(stats.insertions, 1);
    }

    /// Regression for the panic-hygiene pass: a thread that panics while
    /// holding a shard lock used to poison it and take down every later
    /// caller that hashed to that shard. The cache now recovers the lock —
    /// the map is structurally sound, and serving a cache entry is always
    /// safe — so one crashed worker cannot cascade into a dead cache.
    #[test]
    fn poisoned_shard_lock_is_recovered_not_propagated() {
        let cache = Arc::new(ShardedResultCache::new(CacheConfig {
            shards: 1,
            capacity_per_shard: 4,
        }));
        cache.insert("a".to_string(), result_of(1));
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].write().unwrap();
            panic!("poison the shard lock");
        })
        .join();
        assert!(
            cache.shards[0].is_poisoned(),
            "setup: lock must be poisoned"
        );
        // Every path over the poisoned shard degrades to recovery.
        assert!(cache.lookup("a").is_some());
        cache.insert("b".to_string(), result_of(2));
        assert_eq!(cache.len(), 2);
    }

    /// Regression: a follower coalesced onto a panicking leader's flight
    /// must receive `EngineError::Internal` — not hang on the condvar, and
    /// not panic itself. The leader blocks until the follower has joined
    /// (observed via the `coalesced` counter), then panics; its unwind
    /// guard retires the flight with the error the follower sees.
    #[test]
    fn follower_of_panicking_leader_gets_internal_error() {
        struct PanicOnceJoined<'a> {
            cache: &'a ShardedResultCache,
        }
        impl Dbms for PanicOnceJoined<'_> {
            fn name(&self) -> &'static str {
                "panic-once-joined-stub"
            }
            fn register(&self, _table: Arc<simba_store::Table>) {}
            fn execute(&self, _query: &Select) -> Result<QueryOutput, EngineError> {
                while self.cache.stats().coalesced == 0 {
                    std::thread::yield_now();
                }
                panic!("injected leader bug");
            }
        }
        let cache = ShardedResultCache::new(CacheConfig::default());
        let q = simba_sql::parse_select("SELECT n FROM t").unwrap();
        let follower_outcome = std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.execute_cached(&q, || PanicOnceJoined { cache: &cache }.execute(&q))
                }))
            });
            let follower = scope.spawn(|| {
                // Join only after the leader's flight exists, so this
                // thread cannot win the leader election itself.
                while !cache.inflight.iter().any(|m| !m.lock().unwrap().is_empty()) {
                    std::thread::yield_now();
                }
                cache.execute_cached(&q, || PanicOnceJoined { cache: &cache }.execute(&q))
            });
            assert!(
                leader.join().unwrap().is_err(),
                "the leader's panic propagates"
            );
            follower.join().unwrap()
        });
        match follower_outcome {
            Err(EngineError::Internal(msg)) => {
                assert!(msg.contains("leader panicked"), "unexpected message: {msg}")
            }
            other => panic!("follower should see Internal, got {other:?}"),
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache = ShardedResultCache::new(CacheConfig {
            shards: 5,
            capacity_per_shard: 4,
        });
        assert_eq!(cache.shards.len(), 8);
        let cache = ShardedResultCache::new(CacheConfig {
            shards: 0,
            capacity_per_shard: 4,
        });
        assert_eq!(cache.shards.len(), 1);
    }
}
