//! Generation-rotated model registry with hot swap and corrupt fallback.
//!
//! On disk the registry is one directory per workload, each a
//! [`GenerationStore`] of sealed [`ServablePredictor`] artifacts:
//!
//! ```text
//! <root>/<workload>/gen-00000001.model
//! <root>/<workload>/gen-00000002.model   ← newest wins
//! ```
//!
//! [`ModelRegistry::publish`] saves the next generation through the
//! store, as training checkpoints are saved: a crash mid-publish never
//! leaves a half-written artifact where loads look, and an acknowledged
//! publish survives power loss. [`ModelRegistry::refresh`] serves the
//! newest generation that decodes, so a torn latest file degrades to the
//! previous generation (counted on `serve/corrupt_fallbacks`) instead of
//! taking the workload down.
//!
//! In memory the registry is a read-mostly table of
//! `Arc<`[`ModelEntry`]`>` behind an `RwLock`. Lookups clone the `Arc`,
//! so an in-flight batch keeps using the model it started with while
//! `refresh`/`publish` swap the table entry underneath — hot swap
//! without a stop-the-world. Swaps are fingerprint-checked: a refresh
//! that finds bytes describing the content already being served keeps
//! the existing entry (and the epoch), so servers' route memos and the
//! plan cache stay warm across no-op refreshes.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use metadse::checkpoint::{CkptIo, GenerationStore, StdIo};
use metadse::shard::ShardSpec;
use metadse::ServablePredictor;
use metadse_nn::serialize::CheckpointError;
use metadse_obs as obs;

use metadse::plan::Plan;

/// One servable model at one generation, shared immutably with workers.
#[derive(Debug)]
pub struct ModelEntry {
    /// Workload the model serves.
    pub workload: String,
    /// On-disk generation number this entry was loaded from.
    pub generation: u64,
    /// The decoded artifact (fingerprint-verified).
    pub servable: ServablePredictor,
}

/// Cumulative plan-cache counters (see
/// [`ModelRegistry::plan_cache_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled a fresh plan.
    pub misses: u64,
    /// Total wall time spent compiling plans, in microseconds.
    pub compile_us: u64,
}

/// Directory-backed registry of hot-swappable serving models.
#[derive(Debug)]
pub struct ModelRegistry {
    root: PathBuf,
    /// Generations retained per workload after a publish (min 2).
    keep: usize,
    io: Arc<dyn CkptIo>,
    table: RwLock<HashMap<String, Arc<ModelEntry>>>,
    /// Compiled plans keyed by `(artifact fingerprint, batch capacity)`.
    /// Content-addressed: a cached plan is *correct* for its
    /// fingerprint forever; eviction on hot swap is memory hygiene, not
    /// a correctness requirement.
    plans: RwLock<HashMap<(u64, usize), Arc<Plan>>>,
    /// Bumped on every table install; servers use it to invalidate
    /// per-workload route memos without re-locking the table per
    /// request.
    epoch: AtomicU64,
    /// When set, this registry is one shard of a fleet: only workloads
    /// whose newest readable artifact this spec [`owns`](ShardSpec::owns)
    /// are installed; everything else on disk is invisible. The
    /// assignment is the deterministic [`metadse::shard::shard_of`], so
    /// every worker process derives the same partition with no
    /// coordination.
    shard: Option<ShardSpec>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_compile_us: AtomicU64,
}

impl ModelRegistry {
    /// A registry rooted at `root` (created lazily), retaining `keep`
    /// generations per workload.
    pub fn new(root: impl Into<PathBuf>, keep: usize) -> ModelRegistry {
        ModelRegistry::with_io(root, keep, Arc::new(StdIo))
    }

    /// A registry whose generation writes go through a caller-supplied
    /// IO shim (fault injection).
    pub fn with_io(root: impl Into<PathBuf>, keep: usize, io: Arc<dyn CkptIo>) -> ModelRegistry {
        ModelRegistry {
            root: root.into(),
            keep,
            io,
            table: RwLock::new(HashMap::new()),
            plans: RwLock::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plan_compile_us: AtomicU64::new(0),
            shard: None,
        }
    }

    /// Opens `root` and loads the newest readable generation of every
    /// workload directory found there.
    pub fn open(root: impl Into<PathBuf>, keep: usize) -> ModelRegistry {
        let registry = ModelRegistry::new(root, keep);
        registry.refresh_all();
        registry
    }

    /// Opens `root` as one shard of a fleet: only workloads whose
    /// artifacts `spec` owns (by fingerprint) are loaded and served.
    /// This is the registry a `metadse-serve` worker process runs on —
    /// after a crash-restart it reopens the same root with the same
    /// spec and recovers exactly its partition, falling back past any
    /// generation the crash left corrupt.
    pub fn open_sharded(root: impl Into<PathBuf>, keep: usize, spec: ShardSpec) -> ModelRegistry {
        let mut registry = ModelRegistry::new(root, keep);
        registry.shard = Some(spec);
        registry.refresh_all();
        registry
    }

    /// The shard spec this registry filters by, if any.
    pub fn shard(&self) -> Option<ShardSpec> {
        self.shard
    }

    /// The registry's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Workload names currently loaded, sorted.
    pub fn workloads(&self) -> Vec<String> {
        let mut names: Vec<String> = self.table.read().unwrap().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// The currently served entry for `workload`, if any.
    pub fn get(&self, workload: &str) -> Option<Arc<ModelEntry>> {
        self.table.read().unwrap().get(workload).cloned()
    }

    /// Publishes `servable` as the next generation for `workload`:
    /// durable save, prune beyond the keep window, hot-swap the table.
    /// Returns the generation number written.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing the artifact or its directory; on error
    /// the previously served entry stays in place.
    pub fn publish(
        &self,
        workload: &str,
        servable: &ServablePredictor,
    ) -> Result<u64, CheckpointError> {
        let generation = self.store(workload).save_bytes(&servable.to_bytes())?;
        self.install(Arc::new(ModelEntry {
            workload: workload.to_string(),
            generation,
            servable: servable.clone(),
        }));
        Ok(generation)
    }

    /// Re-reads `workload` from disk, newest generation first, falling
    /// back past corrupt files (each fallback is warned about and
    /// counted on `serve/corrupt_fallbacks`). Returns the entry now
    /// being served, or `None` when nothing on disk is readable — in
    /// which case a previously loaded entry is *kept*, not dropped.
    pub fn refresh(&self, workload: &str) -> Option<Arc<ModelEntry>> {
        let Some((servable, generation)) = self
            .store(workload)
            .load_latest_with(ServablePredictor::from_bytes)
        else {
            return self.get(workload);
        };
        if let Some(spec) = self.shard {
            // Ownership is decided by the newest readable artifact: if
            // it belongs to another shard, the workload is invisible
            // here — no fallback to older (possibly differently-owned)
            // bytes.
            if !spec.owns(servable.fingerprint()) {
                return None;
            }
        }
        if let Some(current) = self.get(workload) {
            // Fingerprint-checked swap: identical content at the same
            // generation keeps worker caches warm.
            if current.generation == generation
                && current.servable.fingerprint() == servable.fingerprint()
            {
                return Some(current);
            }
        }
        let entry = Arc::new(ModelEntry {
            workload: workload.to_string(),
            generation,
            servable,
        });
        self.install(entry.clone());
        Some(entry)
    }

    /// Refreshes every workload directory under the root; returns the
    /// sorted names that ended up served.
    pub fn refresh_all(&self) -> Vec<String> {
        for workload in self.scan_workloads() {
            let _ = self.refresh(&workload);
        }
        self.workloads()
    }

    /// The compiled plan for `entry`'s artifact at `capacity` batch
    /// rows, served from the cache when one exists (one compile per
    /// `fingerprint × capacity`, shared by every worker via `Arc`).
    ///
    /// # Errors
    ///
    /// Propagates [`Plan::compile`] failures (inconsistent geometry or
    /// malformed parameter payloads); nothing is cached on error.
    pub fn plan_for(
        &self,
        entry: &ModelEntry,
        capacity: usize,
    ) -> Result<Arc<Plan>, CheckpointError> {
        let key = (entry.servable.fingerprint(), capacity.max(1));
        if let Some(plan) = self.plans.read().unwrap().get(&key) {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            obs::counter("serve/plan_cache_hits", 1);
            return Ok(plan.clone());
        }
        // Compile outside any lock: compiles are rare and readers must
        // not stall behind one.
        let started = Instant::now();
        let plan = Arc::new(Plan::compile(&entry.servable, key.1)?);
        let elapsed = started.elapsed().as_micros() as u64;
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        self.plan_compile_us.fetch_add(elapsed, Ordering::Relaxed);
        obs::counter("serve/plan_cache_misses", 1);
        obs::counter("serve/plan_compile_us", elapsed);
        let mut plans = self.plans.write().unwrap();
        // Keep the first plan on a compile race so every worker
        // converges on one Arc (either is bit-identical).
        Ok(plans.entry(key).or_insert(plan).clone())
    }

    /// Monotone table version; bumped by every install (publish,
    /// refresh swap). Route memos keyed on this value are invalidated
    /// by hot swaps without touching the table lock.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Cumulative plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.plan_hits.load(Ordering::Relaxed),
            misses: self.plan_misses.load(Ordering::Relaxed),
            compile_us: self.plan_compile_us.load(Ordering::Relaxed),
        }
    }

    /// `(fingerprint, capacity)` keys currently cached (tests and
    /// diagnostics).
    pub fn cached_plan_shapes(&self) -> Vec<(u64, usize)> {
        let mut keys: Vec<(u64, usize)> = self.plans.read().unwrap().keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    fn install(&self, entry: Arc<ModelEntry>) {
        if let Some(spec) = self.shard {
            // A publish through a sharded registry still writes the
            // artifact (any process may produce models), but only the
            // owning shard serves it.
            if !spec.owns(entry.servable.fingerprint()) {
                return;
            }
        }
        let live: Vec<u64> = {
            let mut table = self.table.write().unwrap();
            table.insert(entry.workload.clone(), entry);
            table.values().map(|e| e.servable.fingerprint()).collect()
        };
        // Evict plans whose artifact is no longer served anywhere.
        // Purely memory hygiene — plans are content-addressed by
        // fingerprint, so a stale plan could never serve wrong bits; it
        // would only pin dead weights. Lock order is table → plans
        // here, and `plan_for` takes only `plans`, so no cycle exists.
        self.plans
            .write()
            .unwrap()
            .retain(|(fp, _), _| live.contains(fp));
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The `.model` generations of `workload`, counted on `serve/*`.
    fn store(&self, workload: &str) -> GenerationStore {
        GenerationStore::new(
            self.root.join(workload),
            "model",
            "serve",
            self.keep,
            self.io.clone(),
        )
    }

    fn scan_workloads(&self) -> Vec<String> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| {
                let e = e.ok()?;
                if !e.file_type().ok()?.is_dir() {
                    return None;
                }
                Some(e.file_name().to_str()?.to_string())
            })
            .collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadse::checkpoint::{FaultIo, FaultMode, FaultSpec};
    use metadse::predictor::{PredictorConfig, TransformerPredictor};

    fn small_servable(seed: u64) -> ServablePredictor {
        let model = TransformerPredictor::new(
            PredictorConfig {
                num_params: 4,
                d_model: 8,
                heads: 2,
                depth: 1,
                d_hidden: 12,
                head_hidden: 8,
            },
            seed,
        );
        ServablePredictor::capture(&model, None, "ipc")
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "metadse-serve-registry-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn publish_rotates_generations_and_prunes() {
        let root = temp_root("rotate");
        let registry = ModelRegistry::new(&root, 2);
        for seed in 0..4 {
            let generation = registry.publish("mcf", &small_servable(seed)).unwrap();
            assert_eq!(generation, seed + 1);
        }
        let on_disk: Vec<u64> = registry
            .store("mcf")
            .generations()
            .iter()
            .map(|(g, _)| *g)
            .collect();
        assert_eq!(on_disk, vec![3, 4], "keep=2 retains the last two");
        assert_eq!(registry.get("mcf").unwrap().generation, 4);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn open_loads_newest_generation_of_every_workload() {
        let root = temp_root("open");
        {
            let writer = ModelRegistry::new(&root, 4);
            writer.publish("mcf", &small_servable(1)).unwrap();
            writer.publish("mcf", &small_servable(2)).unwrap();
            writer.publish("gcc", &small_servable(3)).unwrap();
        }
        let registry = ModelRegistry::open(&root, 4);
        assert_eq!(registry.workloads(), vec!["gcc", "mcf"]);
        assert_eq!(registry.get("mcf").unwrap().generation, 2);
        assert_eq!(
            registry.get("mcf").unwrap().servable.fingerprint(),
            small_servable(2).fingerprint()
        );
        fs::remove_dir_all(&root).ok();
    }

    /// Publishes generation 2 over an intact generation 1 through a shim
    /// that tears, crashes or fails the first chunk write (create = 0,
    /// first chunk write = 1).
    #[test]
    fn faulty_publish_never_exposes_a_partial_generation() {
        for mode in [
            FaultMode::TornWrite,
            FaultMode::CrashMidWrite,
            FaultMode::WriteError,
        ] {
            let root = temp_root(&format!("fault-{mode:?}"));
            ModelRegistry::new(&root, 4)
                .publish("mcf", &small_servable(1))
                .unwrap();
            let registry = ModelRegistry::with_io(
                &root,
                4,
                Arc::new(FaultIo::new(FaultSpec { fail_at: 1, mode })),
            );
            let served = registry.refresh("mcf").unwrap();
            let published = registry.publish("mcf", &small_servable(2));
            if mode == FaultMode::TornWrite {
                // Torn writes lie: the publish reports success and only
                // the seal's checksum catches the damage on load.
                assert_eq!(published.unwrap(), 2);
            } else {
                assert!(published.is_err(), "{mode:?}");
                let now = registry.get("mcf").unwrap();
                assert!(Arc::ptr_eq(&now, &served), "{mode:?}: served entry kept");
                assert_eq!(registry.store("mcf").generations().len(), 1, "{mode:?}");
            }
            let fresh = ModelRegistry::open(&root, 4);
            let entry = fresh.get("mcf").expect("generation 1 still served");
            assert_eq!(entry.generation, 1, "{mode:?}");
            assert_eq!(
                entry.servable.fingerprint(),
                small_servable(1).fingerprint()
            );
            fs::remove_dir_all(&root).ok();
        }
    }

    /// Cuts the power at every operation of three publishes in turn (the
    /// first creates the root and workload directories, the third
    /// prunes): a publish that failed leaves the served entry alone, and
    /// after the cut a fresh registry serves exactly the newest
    /// acknowledged generation.
    #[test]
    fn power_loss_keeps_every_acknowledged_publish() {
        for fail_at in 0.. {
            let root = temp_root("power");
            let io = Arc::new(FaultIo::new(FaultSpec {
                fail_at,
                mode: FaultMode::PowerLoss,
            }));
            let registry = ModelRegistry::with_io(&root, 2, io.clone());
            let mut acknowledged = None;
            for seed in 1..=3 {
                let before = registry.get("mcf").map(|e| e.generation);
                match registry.publish("mcf", &small_servable(seed)) {
                    Ok(generation) => acknowledged = Some((generation, seed)),
                    Err(_) => assert_eq!(registry.get("mcf").map(|e| e.generation), before),
                }
            }
            let served = ModelRegistry::open(&root, 2)
                .get("mcf")
                .map(|e| (e.generation, e.servable.fingerprint()));
            assert_eq!(
                served,
                acknowledged.map(|(g, seed)| (g, small_servable(seed).fingerprint())),
                "power cut at operation {fail_at}"
            );
            fs::remove_dir_all(&root).ok();
            // One more operation: it succeeds only if the power never
            // went, i.e. every operation of the publishes was covered.
            if io.sync_dir(&std::env::temp_dir()).is_ok() {
                break;
            }
        }
    }

    #[test]
    fn refresh_keeps_served_entry_when_disk_is_unreadable() {
        let root = temp_root("keep");
        let registry = ModelRegistry::new(&root, 4);
        registry.publish("mcf", &small_servable(1)).unwrap();
        // Wreck everything on disk; the in-memory entry must survive.
        for (_, path) in registry.store("mcf").generations() {
            fs::write(&path, b"garbage").unwrap();
        }
        let entry = registry.refresh("mcf").expect("stale entry retained");
        assert_eq!(entry.generation, 1);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn noop_refresh_returns_the_same_arc() {
        let root = temp_root("noop");
        let registry = ModelRegistry::new(&root, 4);
        registry.publish("mcf", &small_servable(1)).unwrap();
        let before = registry.get("mcf").unwrap();
        let after = registry.refresh("mcf").unwrap();
        assert!(
            Arc::ptr_eq(&before, &after),
            "identical content must not churn the entry"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_workload_is_none() {
        let root = temp_root("missing");
        let registry = ModelRegistry::new(&root, 4);
        assert!(registry.get("nope").is_none());
        assert!(registry.refresh("nope").is_none());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sharded_open_partitions_workloads_without_overlap_or_loss() {
        let root = temp_root("sharded");
        let workloads = ["astar", "bzip2", "gcc", "mcf", "omnetpp", "sjeng"];
        {
            let writer = ModelRegistry::new(&root, 4);
            for (i, w) in workloads.iter().enumerate() {
                writer.publish(w, &small_servable(100 + i as u64)).unwrap();
            }
        }
        let count = 3;
        let mut seen: Vec<String> = Vec::new();
        for index in 0..count {
            let spec = ShardSpec::new(index, count).unwrap();
            let shard = ModelRegistry::open_sharded(&root, 4, spec);
            assert_eq!(shard.shard(), Some(spec));
            for w in shard.workloads() {
                let fp = shard.get(&w).unwrap().servable.fingerprint();
                assert!(spec.owns(fp), "shard {index} loaded unowned {w}");
                seen.push(w);
            }
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            workloads.iter().map(|w| w.to_string()).collect::<Vec<_>>(),
            "every workload owned by exactly one shard"
        );
        // Unsharded open sees everything.
        assert_eq!(ModelRegistry::open(&root, 4).workloads().len(), 6);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn plan_for_caches_one_plan_per_fingerprint_and_capacity() {
        let root = temp_root("plancache");
        let registry = ModelRegistry::new(&root, 4);
        registry.publish("mcf", &small_servable(1)).unwrap();
        let entry = registry.get("mcf").unwrap();

        let first = registry.plan_for(&entry, 8).unwrap();
        let second = registry.plan_for(&entry, 8).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same key must share one Arc");
        let other_cap = registry.plan_for(&entry, 16).unwrap();
        assert!(!Arc::ptr_eq(&first, &other_cap));

        let stats = registry.plan_cache_stats();
        assert_eq!(stats.misses, 2, "two distinct shapes compiled");
        assert_eq!(stats.hits, 1, "one lookup served from cache");
        assert!(stats.compile_us > 0 || stats.misses > 0);
        assert_eq!(registry.cached_plan_shapes().len(), 2);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn hot_swap_purges_stale_plans_and_bumps_epoch() {
        let root = temp_root("planswap");
        let registry = ModelRegistry::new(&root, 4);
        registry.publish("mcf", &small_servable(1)).unwrap();
        let old_entry = registry.get("mcf").unwrap();
        let old_fp = old_entry.servable.fingerprint();
        registry.plan_for(&old_entry, 8).unwrap();
        assert_eq!(registry.cached_plan_shapes(), vec![(old_fp, 8)]);

        let epoch_before = registry.epoch();
        registry.publish("mcf", &small_servable(2)).unwrap();
        assert!(registry.epoch() > epoch_before, "install must bump epoch");
        assert!(
            registry.cached_plan_shapes().is_empty(),
            "plans of unserved fingerprints are purged on swap"
        );

        // The new entry compiles (and caches) its own plan.
        let new_entry = registry.get("mcf").unwrap();
        let plan = registry.plan_for(&new_entry, 8).unwrap();
        assert_eq!(plan.fingerprint(), new_entry.servable.fingerprint());
        fs::remove_dir_all(&root).ok();
    }
}
