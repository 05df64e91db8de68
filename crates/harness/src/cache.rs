//! Content-addressed scenario cache.
//!
//! A scenario's [`TranslationRecord`] is fully determined by the application
//! sources, the model fingerprint, the direction, the derived per-scenario
//! seed and the pipeline configuration — the pipeline is deterministic, so a
//! cached record is *exact*, not approximate. The cache key hashes all of
//! those with FNV-1a (hand-rolled: `DefaultHasher` is explicitly not stable
//! across Rust releases, and disk entries must outlive a toolchain bump —
//! a changed hash only costs a miss, a *reused* wrong hash would corrupt).
//!
//! Two backings share one interface: a process-local in-memory map, and an
//! optional on-disk layer (one JSON file per scenario) that lets repeated
//! sweep *invocations* skip already-computed scenarios. Hit/miss counters
//! prove the speedup (`sweep smoke` asserts a warm rerun is 100% hits).
//!
//! ## Scaling under concurrency
//!
//! The in-memory map is sharded [`SHARD_COUNT`] ways by key hash, each shard
//! behind its own (non-poisoning) `parking_lot::Mutex`, so concurrent
//! clients of a long-lived service do not serialize on one lock. Counters
//! are kept per shard and summed in [`ScenarioCache::snapshot`], so the
//! `hits + misses == lookups` invariant survives sharding.
//!
//! Disk persistence is *batched*: [`ScenarioCache::store`] enqueues the
//! record onto a bounded channel drained by one writer thread, so the
//! request path never does a synchronous file write. [`ScenarioCache::flush`]
//! blocks until everything enqueued so far is on disk; dropping the cache
//! flushes implicitly (the writer drains its queue and is joined). Crash
//! consistency is trivial: an entry that never reached disk is just a
//! future miss, and the write-then-rename protocol means a reader never
//! sees a torn file.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use parking_lot::Mutex;

use lassi_core::TranslationRecord;

use crate::codec::{record_from_json, record_to_json};
use crate::json;
use crate::scheduler::Job;

/// Number of independent in-memory shards (a power of two so the shard
/// index is a mask over the key hash).
pub const SHARD_COUNT: usize = 16;

/// Capacity of the disk-writer channel: enough to absorb a burst of stores
/// without blocking the workers, small enough that a slow disk applies
/// backpressure instead of ballooning memory.
const WRITER_QUEUE_CAPACITY: usize = 256;

/// 64-bit FNV-1a over arbitrary bytes: small, stable, good enough dispersion
/// for a few thousand scenario keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content-addressed identity of one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioKey(pub u64);

impl ScenarioKey {
    /// Hex form used as the on-disk file stem.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Which shard this key lives in: the FNV hash folded down and masked.
    /// Folding the high half in keeps the shard choice sensitive to every
    /// input byte, not just the tail the final multiplies mixed last.
    fn shard_index(self) -> usize {
        ((self.0 ^ (self.0 >> 32)) as usize) & (SHARD_COUNT - 1)
    }
}

/// Derive the cache key for a job from everything that determines its record.
///
/// The leading version tag covers the *pipeline semantics* too: bump it when
/// a code change alters what a record would contain for identical inputs
/// (v2: the Sim-T tokenizer stopped gluing `.` into identifiers, shifting
/// similarity scores; v3: executions moved to the bytecode VM and the key
/// gained the engine token; v4: repair prompts render structured coded
/// diagnostics and records carry per-attempt diagnostic history; v5: the
/// bytecode VM became the only production engine and the engine token was
/// dropped), so stale disk entries miss instead of resurfacing scores the
/// current code would never produce.
pub fn scenario_key(job: &Job) -> ScenarioKey {
    let config = &job.config;
    let canonical = format!(
        "v5;app={};cuda={:016x};omp={:016x};model={};dir={};seed={};msc={};runs={};\
         step={};hostop={:016x};startup={:016x}",
        job.application.name,
        fnv1a64(job.application.cuda_source.as_bytes()),
        fnv1a64(job.application.omp_source.as_bytes()),
        job.model.fingerprint(),
        job.direction.slug(),
        job.scenario_seed(),
        config.max_self_corrections,
        config.timing_runs,
        config.run_config.step_limit,
        config.run_config.host_op_seconds.to_bits(),
        config.run_config.startup_seconds.to_bits(),
    );
    ScenarioKey(fnv1a64(canonical.as_bytes()))
}

/// Hit/miss/store counters, cheap enough to share across worker threads.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

/// A point-in-time copy of the counters (for per-pass deltas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a pipeline run.
    pub misses: u64,
    /// Records written into the cache.
    pub stores: u64,
}

impl CacheSnapshot {
    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            stores: self.stores - earlier.stores,
        }
    }
}

/// One in-memory shard: its slice of the key space plus its own counters.
/// Records are held behind `Arc`s so the lock is only ever held across a
/// map operation and a refcount bump — deep clones (the records carry the
/// scenario's source strings) happen outside the lock.
#[derive(Default)]
struct Shard {
    map: Mutex<HashMap<u64, Arc<TranslationRecord>>>,
    stats: CacheStats,
}

/// What the cache asks of its disk-writer thread.
enum DiskCommand {
    /// Persist one record at `path` (write-then-rename). The `Arc` is
    /// shared with the in-memory shard: enqueueing copies a pointer, not
    /// the record.
    Store {
        path: PathBuf,
        record: Arc<TranslationRecord>,
    },
    /// Acknowledge once every command enqueued before this one is on disk.
    Flush(mpsc::SyncSender<()>),
}

/// Writer-thread counters shared between the enqueueing side and the
/// writer itself: the live queue depth and how many flush barriers have
/// completed. Read by `/v1/cache/stats` and mirrored into `/v1/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriterSnapshot {
    /// Store commands enqueued but not yet written to disk.
    pub queue_depth: u64,
    /// Flush barriers acknowledged since the cache was created.
    pub flushes: u64,
}

#[derive(Default)]
struct WriterStats {
    queue_depth: AtomicU64,
    flushes: AtomicU64,
}

/// The dedicated disk-writer thread and its bounded command channel.
struct DiskWriter {
    tx: Option<mpsc::SyncSender<DiskCommand>>,
    handle: Option<thread::JoinHandle<()>>,
    stats: Arc<WriterStats>,
    flush_seconds: lassi_obs::Histogram,
}

impl DiskWriter {
    fn spawn() -> DiskWriter {
        let (tx, rx) = mpsc::sync_channel::<DiskCommand>(WRITER_QUEUE_CAPACITY);
        let stats = Arc::new(WriterStats::default());
        let thread_stats = Arc::clone(&stats);
        let handle = thread::Builder::new()
            .name("lassi-cache-writer".into())
            .spawn(move || {
                while let Ok(command) = rx.recv() {
                    match command {
                        DiskCommand::Store { path, record } => {
                            // Serialization happens here, off the request
                            // path. Write-then-rename so a concurrent reader
                            // never sees a torn file; failures are tolerated
                            // (a missing entry is just a future miss).
                            let tmp = path.with_extension("json.tmp");
                            let text = record_to_json(&record).to_pretty();
                            if std::fs::write(&tmp, text).is_ok() {
                                let _ = std::fs::rename(&tmp, &path);
                            }
                            thread_stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        }
                        DiskCommand::Flush(ack) => {
                            // The channel is FIFO, so reaching this command
                            // means every earlier store has been written.
                            thread_stats.flushes.fetch_add(1, Ordering::Relaxed);
                            let _ = ack.send(());
                        }
                    }
                }
            })
            .expect("spawn cache writer thread");
        DiskWriter {
            tx: Some(tx),
            handle: Some(handle),
            stats,
            flush_seconds: lassi_obs::global().histogram(
                "lassi_cache_flush_seconds",
                "Latency of cache flush barriers (everything queued reaching disk).",
                &[],
                lassi_obs::LATENCY_SECONDS,
            ),
        }
    }

    fn send(&self, command: DiskCommand) {
        if let Some(tx) = &self.tx {
            if matches!(command, DiskCommand::Store { .. }) {
                self.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
            }
            // A full channel blocks here: backpressure against a disk slower
            // than the workers, never unbounded memory.
            let _ = tx.send(command);
        }
    }

    fn flush(&self) {
        let started = std::time::Instant::now();
        let (ack_tx, ack_rx) = mpsc::sync_channel::<()>(1);
        self.send(DiskCommand::Flush(ack_tx));
        let _ = ack_rx.recv();
        self.flush_seconds.observe(started.elapsed().as_secs_f64());
    }

    fn snapshot(&self) -> WriterSnapshot {
        WriterSnapshot {
            queue_depth: self.stats.queue_depth.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
        }
    }
}

impl Drop for DiskWriter {
    fn drop(&mut self) {
        // Close the channel so the writer drains what is queued and exits,
        // then join it: dropping the cache is an implicit flush.
        self.tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The scenario cache: a sharded in-memory map, optionally backed by a
/// directory of `<key>.json` files maintained by a batched writer thread.
pub struct ScenarioCache {
    dir: Option<PathBuf>,
    shards: Vec<Shard>,
    writer: Option<DiskWriter>,
}

impl ScenarioCache {
    fn shards() -> Vec<Shard> {
        (0..SHARD_COUNT).map(|_| Shard::default()).collect()
    }

    /// Process-local cache with no persistence.
    pub fn in_memory() -> Self {
        ScenarioCache {
            dir: None,
            shards: Self::shards(),
            writer: None,
        }
    }

    /// Disk-backed cache rooted at `dir` (created if missing). Entries
    /// survive across processes, which is what makes a second `sweep`
    /// invocation 100% hits. Writes are batched through a dedicated writer
    /// thread; call [`ScenarioCache::flush`] (or drop the cache) before
    /// another process needs to observe them.
    pub fn on_disk(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ScenarioCache {
            dir: Some(dir),
            shards: Self::shards(),
            writer: Some(DiskWriter::spawn()),
        })
    }

    /// The backing directory, if this cache persists to disk.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn shard(&self, key: ScenarioKey) -> &Shard {
        &self.shards[key.shard_index()]
    }

    /// Look a scenario up, counting the hit or miss.
    pub fn lookup(&self, key: ScenarioKey) -> Option<TranslationRecord> {
        let shard = self.shard(key);
        // Only the refcount bump happens under the lock; the deep clone the
        // caller receives is made after it is released.
        let resident = shard.map.lock().get(&key.0).map(Arc::clone);
        if let Some(record) = resident {
            shard.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Some((*record).clone());
        }
        if let Some(record) = self.disk_lookup(key) {
            let shared = Arc::new(record);
            shard.map.lock().insert(key.0, Arc::clone(&shared));
            shard.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Some((*shared).clone());
        }
        shard.stats.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn disk_lookup(&self, key: ScenarioKey) -> Option<TranslationRecord> {
        let dir = self.dir.as_ref()?;
        let text = std::fs::read_to_string(self.entry_path(dir, key)).ok()?;
        // A corrupt or truncated entry is treated as a miss and will be
        // overwritten by the recomputed record.
        let value = json::parse(&text).ok()?;
        record_from_json(&value).ok()
    }

    /// Store a freshly computed record under its key. The in-memory shard is
    /// updated synchronously (later lookups in this process hit); the disk
    /// write is queued onto the writer thread and lands asynchronously. One
    /// deep clone happens here, outside the lock; the shard map and the
    /// writer queue share it behind an `Arc`.
    pub fn store(&self, key: ScenarioKey, record: &TranslationRecord) {
        let shard = self.shard(key);
        shard.stats.stores.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(record.clone());
        shard.map.lock().insert(key.0, Arc::clone(&shared));
        if let (Some(dir), Some(writer)) = (&self.dir, &self.writer) {
            writer.send(DiskCommand::Store {
                path: self.entry_path(dir, key),
                record: shared,
            });
        }
    }

    /// Block until every store enqueued so far has reached disk. A no-op for
    /// an in-memory cache. Call before handing the backing directory to
    /// another process (or asserting on its contents).
    pub fn flush(&self) {
        if let Some(writer) = &self.writer {
            writer.flush();
        }
    }

    fn entry_path(&self, dir: &Path, key: ScenarioKey) -> PathBuf {
        dir.join(format!("{}.json", key.hex()))
    }

    /// Current counter values, summed across shards. Each shard's counters
    /// are exact, so the invariant `hits + misses == lookups` holds for the
    /// aggregate too.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut snapshot = CacheSnapshot::default();
        for shard in &self.shards {
            snapshot.hits += shard.stats.hits.load(Ordering::Relaxed);
            snapshot.misses += shard.stats.misses.load(Ordering::Relaxed);
            snapshot.stores += shard.stats.stores.load(Ordering::Relaxed);
        }
        snapshot
    }

    /// Per-shard counter values, indexed by shard. Summing these equals
    /// [`ScenarioCache::snapshot`] (both read the same atomics), which is
    /// what lets `/v1/cache/stats` and `/v1/metrics` stay consistent.
    pub fn shard_snapshots(&self) -> Vec<CacheSnapshot> {
        self.shards
            .iter()
            .map(|shard| CacheSnapshot {
                hits: shard.stats.hits.load(Ordering::Relaxed),
                misses: shard.stats.misses.load(Ordering::Relaxed),
                stores: shard.stats.stores.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Disk-writer queue depth and flush count; all zeros for an in-memory
    /// cache (there is no writer thread to observe).
    pub fn writer_snapshot(&self) -> WriterSnapshot {
        self.writer
            .as_ref()
            .map(DiskWriter::snapshot)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Job;
    use lassi_core::{Direction, PipelineConfig};
    use lassi_hecbench::application;
    use lassi_llm::gpt4;
    use std::sync::atomic::AtomicUsize;

    fn test_dir(label: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lassi-cache-test-{}-{label}-{n}",
            std::process::id()
        ))
    }

    fn job(app: &str, msc: u32) -> Job {
        Job::new(
            application(app).unwrap(),
            gpt4(),
            Direction::CudaToOmp,
            PipelineConfig {
                max_self_corrections: msc,
                timing_runs: 1,
                ..PipelineConfig::default()
            },
        )
    }

    #[test]
    fn keys_separate_every_dimension() {
        let base = scenario_key(&job("layout", 40));
        assert_eq!(base, scenario_key(&job("layout", 40)), "stable");
        assert_ne!(base, scenario_key(&job("entropy", 40)), "application");
        assert_ne!(base, scenario_key(&job("layout", 10)), "config override");
        let mut other_dir = job("layout", 40);
        other_dir.direction = Direction::OmpToCuda;
        assert_ne!(base, scenario_key(&other_dir), "direction");
        let mut other_model = job("layout", 40);
        other_model.model.profile.p_compile_fault += 0.01;
        assert_ne!(base, scenario_key(&other_model), "model profile");
    }

    /// `scenario_key(&job("layout", 40))` at key version v5.
    const SCENARIO_KEY_PIN: u64 = 0x666e_7d78_982a_8f3e;

    #[test]
    fn scenario_key_is_pinned() {
        // The key addresses every on-disk cache entry; this pin catches any
        // accidental change to its canonical string (which would silently
        // orphan every cached record). Bump the version tag and regenerate
        // by printing the value if the key changes deliberately.
        assert_eq!(
            scenario_key(&job("layout", 40)),
            ScenarioKey(SCENARIO_KEY_PIN)
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn memory_cache_counts_hits_and_misses() {
        let cache = ScenarioCache::in_memory();
        let key = scenario_key(&job("layout", 40));
        assert!(cache.lookup(key).is_none());
        let record = job("layout", 40).run();
        cache.store(key, &record);
        assert_eq!(cache.lookup(key).as_ref(), Some(&record));
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.stores), (1, 1, 1));
        assert!((snap.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counters_aggregate_across_shards() {
        // Synthetic keys chosen to land in distinct shards; the aggregate
        // snapshot must still account for every lookup exactly once.
        let cache = ScenarioCache::in_memory();
        let record = job("layout", 40).run();
        let keys: Vec<ScenarioKey> = (0..SHARD_COUNT as u64).map(ScenarioKey).collect();
        for &key in &keys {
            assert!(cache.lookup(key).is_none());
            cache.store(key, &record);
        }
        for &key in &keys {
            assert!(cache.lookup(key).is_some());
        }
        let snap = cache.snapshot();
        let n = keys.len() as u64;
        assert_eq!((snap.hits, snap.misses, snap.stores), (n, n, n));
    }

    #[test]
    fn shard_snapshots_sum_to_the_aggregate() {
        let cache = ScenarioCache::in_memory();
        let record = job("layout", 40).run();
        for key in (0..64u64).map(|k| ScenarioKey(k.wrapping_mul(0x9e3779b97f4a7c15))) {
            assert!(cache.lookup(key).is_none());
            cache.store(key, &record);
            assert!(cache.lookup(key).is_some());
        }
        let shards = cache.shard_snapshots();
        assert_eq!(shards.len(), SHARD_COUNT);
        let total = cache.snapshot();
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), total.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), total.misses);
        assert_eq!(shards.iter().map(|s| s.stores).sum::<u64>(), total.stores);
        assert_eq!((total.hits, total.misses, total.stores), (64, 64, 64));
        // No writer thread: the writer snapshot is all zeros.
        assert_eq!(cache.writer_snapshot(), WriterSnapshot::default());
    }

    #[test]
    fn writer_snapshot_counts_flushes_and_drains_the_queue() {
        let dir = test_dir("writer-stats");
        let cache = ScenarioCache::on_disk(&dir).unwrap();
        let record = job("layout", 40).run();
        for key in (0..8u64).map(ScenarioKey) {
            cache.store(key, &record);
        }
        cache.flush();
        cache.flush();
        let snap = cache.writer_snapshot();
        assert_eq!(snap.queue_depth, 0, "flush drains every queued store");
        assert_eq!(snap.flushes, 2);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cache_persists_across_instances() {
        let dir = test_dir("persist");
        let key = scenario_key(&job("entropy", 40));
        let record = job("entropy", 40).run();
        {
            let cache = ScenarioCache::on_disk(&dir).unwrap();
            cache.store(key, &record);
            // Dropping the cache joins the writer thread — an implicit flush.
        }
        let fresh = ScenarioCache::on_disk(&dir).unwrap();
        assert_eq!(fresh.lookup(key).as_ref(), Some(&record));
        assert_eq!(fresh.snapshot().hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_makes_stores_visible_on_disk() {
        let dir = test_dir("flush");
        let cache = ScenarioCache::on_disk(&dir).unwrap();
        let key = scenario_key(&job("layout", 40));
        let record = job("layout", 40).run();
        cache.store(key, &record);
        cache.flush();
        // Without dropping `cache`, the entry must already be a complete
        // JSON file another cache instance can read.
        let fresh = ScenarioCache::on_disk(&dir).unwrap();
        assert_eq!(fresh.lookup(key).as_ref(), Some(&record));
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_disk_entries_degrade_to_misses() {
        let dir = test_dir("corrupt");
        let cache = ScenarioCache::on_disk(&dir).unwrap();
        let key = scenario_key(&job("layout", 40));
        std::fs::write(dir.join(format!("{}.json", key.hex())), "{ not json").unwrap();
        assert!(cache.lookup(key).is_none());
        assert_eq!(cache.snapshot().misses, 1);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
