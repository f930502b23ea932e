//! Epoch-counted engine swapping — zero-downtime snapshot hot-reload.
//!
//! An [`EngineHandle`] sits between the network front-end and the
//! [`ServingEngine`]: request paths grab the current `Arc<ServingEngine>`
//! (plus the epoch that built it) and keep using it for however long
//! their request takes, while a reload builds the *next* engine entirely
//! off to the side and then swaps the shared pointer in one short write
//! — no request ever observes a half-loaded model, and in-flight
//! requests finish on the epoch they started with. The old engine is
//! freed when the last in-flight holder drops its `Arc`.
//!
//! Reloads come from two places: an explicit call (the HTTP front-end's
//! `POST /v1/reload`) and the optional [`SnapshotWatcher`] poll loop
//! that watches a snapshot file's metadata and reloads when it changes —
//! the "retrain somewhere, copy the file over, the server picks it up"
//! deployment story.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, SystemTime};

use slide_core::SnapshotError;

use crate::engine::{ServeOptions, ServingEngine};
use crate::error::ServeError;

struct Current {
    engine: Arc<ServingEngine>,
    epoch: u64,
}

/// Hot-swappable handle to the live [`ServingEngine`].
///
/// Cheap to read (one `RwLock` read acquisition returning a cloned
/// `Arc`), rare to write (a reload). The epoch starts at 1 and
/// increments on every successful swap; it is the version the HTTP
/// layer reports in every response so a client can tell which model
/// answered.
pub struct EngineHandle {
    current: RwLock<Current>,
    /// Mirror of the epoch inside the lock, for lock-free reads on the
    /// health path.
    epoch: AtomicU64,
    /// Options every reload rebuilds the engine with.
    options: ServeOptions,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
    /// The epoch installed by the most recent successful swap — what the
    /// handle keeps serving through any number of failed reloads.
    last_good_epoch: AtomicU64,
    /// Reload failures since the last successful swap; a successful
    /// reload resets it. Readiness probes use this to distinguish "one
    /// bad publish" from "persistently broken model pipeline".
    consecutive_failures: AtomicU64,
    /// Snapshot files the watcher moved aside after a failed load.
    quarantined: AtomicU64,
}

impl std::fmt::Debug for EngineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHandle")
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl EngineHandle {
    /// Wraps an already-built engine at epoch 1. `options` is remembered
    /// and applied to every subsequent reload.
    pub fn new(engine: ServingEngine) -> Self {
        let options = *engine.options();
        Self {
            current: RwLock::new(Current {
                engine: Arc::new(engine),
                epoch: 1,
            }),
            epoch: AtomicU64::new(1),
            options,
            reloads: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
            last_good_epoch: AtomicU64::new(1),
            consecutive_failures: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Loads the initial engine from a snapshot file.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Core`] on filesystem failure or a malformed
    /// snapshot.
    pub fn from_snapshot_file<P: AsRef<Path>>(
        path: P,
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        Ok(Self::new(ServingEngine::from_snapshot_file(path, options)?))
    }

    /// The live engine and the epoch that installed it, as one
    /// consistent pair. Hold the `Arc` for the duration of a request; a
    /// concurrent reload does not disturb it.
    pub fn current(&self) -> (Arc<ServingEngine>, u64) {
        let c = self
            .current
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (Arc::clone(&c.engine), c.epoch)
    }

    /// The live engine (epoch ignored).
    pub fn engine(&self) -> Arc<ServingEngine> {
        self.current().0
    }

    /// The current model epoch (1-based, incremented per swap).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Successful reloads since start.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Failed reload attempts since start (the previous engine kept
    /// serving through every one of them).
    pub fn reload_failures(&self) -> u64 {
        self.reload_failures.load(Ordering::Relaxed)
    }

    /// The epoch of the last *successful* swap — the engine that keeps
    /// serving (and that the system "rolls back" to, by never leaving it)
    /// while reloads fail.
    pub fn last_good_epoch(&self) -> u64 {
        self.last_good_epoch.load(Ordering::Acquire)
    }

    /// Reload failures since the last successful swap (0 when healthy).
    pub fn consecutive_reload_failures(&self) -> u64 {
        self.consecutive_failures.load(Ordering::Relaxed)
    }

    /// Snapshot files the watcher quarantined after a failed load.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Installs an already-built engine, returning the new epoch.
    pub fn swap(&self, engine: ServingEngine) -> u64 {
        let engine = Arc::new(engine);
        let mut c = self
            .current
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        c.epoch += 1;
        c.engine = engine;
        let epoch = c.epoch;
        self.epoch.store(epoch, Ordering::Release);
        self.last_good_epoch.store(epoch, Ordering::Release);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        self.consecutive_failures.store(0, Ordering::Relaxed);
        epoch
    }

    /// Builds a new engine from snapshot bytes (table rebuilds and all)
    /// *before* touching the live pointer, then swaps. Returns the new
    /// epoch.
    ///
    /// A handle serving a snapshot slice (a shard) reloads only a slice
    /// of the same `(lo, hi, total)` neuron range: a full snapshot would
    /// install a full-width engine whose classes the router then merges
    /// twice, and another shard's slice would serve the wrong range.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Core`] on a malformed snapshot, or — for a
    /// shard — [`SnapshotError::Slice`] on anything but a slice of its
    /// own range; the previous engine keeps serving.
    pub fn reload_from_bytes(&self, bytes: &[u8]) -> Result<u64, ServeError> {
        self.install(self.build(bytes))
    }

    /// [`EngineHandle::reload_from_bytes`] reading from a file.
    ///
    /// # Errors
    ///
    /// As [`EngineHandle::reload_from_bytes`], plus [`ServeError::Core`]
    /// on filesystem failure; the previous engine keeps serving.
    pub fn reload_from_file<P: AsRef<Path>>(&self, path: P) -> Result<u64, ServeError> {
        let next = std::fs::read(path)
            .map_err(|e| SnapshotError::from(e).into())
            .and_then(|bytes| self.build(&bytes));
        self.install(next)
    }

    /// The next engine for `bytes`: a full model for a full handle, a
    /// slice of the same range for a shard. A shard checks the slice's
    /// range before restoring it: the restore costs `total × fan_in` RNG
    /// draws, and `total` is whatever the slice header claims.
    fn build(&self, bytes: &[u8]) -> Result<ServingEngine, ServeError> {
        let Some(range) = self.engine().slice_range() else {
            return ServingEngine::from_snapshot_bytes(bytes, self.options);
        };
        let theirs = slide_core::snapshot::slice_range(bytes).map_err(|e| match e {
            SnapshotError::BadMagic => {
                SnapshotError::Slice("a shard reloads only a slice of its own range")
            }
            e => e,
        })?;
        if theirs != range {
            return Err(SnapshotError::Slice("slice covers another shard's range").into());
        }
        ServingEngine::from_slice_bytes(bytes, self.options)
    }

    /// Swaps in a successfully built engine, or counts the failure.
    fn install(&self, next: Result<ServingEngine, ServeError>) -> Result<u64, ServeError> {
        match next {
            Ok(engine) => Ok(self.swap(engine)),
            Err(e) => {
                self.reload_failures.fetch_add(1, Ordering::Relaxed);
                self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Starts a background thread that polls `path`'s metadata every
    /// `interval` and hot-reloads when the file's modification time,
    /// size or inode changes. Publishers are expected to use the atomic
    /// tmp+fsync+rename writer (`slide_core::snapshot::publish_bytes`),
    /// so a poll can never observe a torn file.
    ///
    /// Failure handling: a missing file or a failed reload leaves the
    /// current engine serving ([`EngineHandle::last_good_epoch`]). A file
    /// that existed but did not load is counted in
    /// [`EngineHandle::reload_failures`], quarantined (best-effort rename
    /// to `<path>.quarantined`, counted in [`EngineHandle::quarantined`])
    /// so the publisher's next atomic publish starts clean and operators
    /// can inspect the bad bytes, and — if it somehow stays in place —
    /// retried under capped exponential backoff
    /// ([`MAX_WATCHER_BACKOFF_TICKS`]) instead of hammering every tick. A
    /// *new* fingerprint (a republish) is always attempted promptly.
    pub fn spawn_watcher(self: &Arc<Self>, path: PathBuf, interval: Duration) -> SnapshotWatcher {
        let handle = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        // The baseline fingerprint is taken synchronously, BEFORE the
        // thread spawns: taken lazily on the watcher thread, a publish
        // that lands between this call returning and the thread first
        // being scheduled would be fingerprinted as "already attempted"
        // and silently never loaded.
        let baseline = fingerprint(&path);
        let thread = std::thread::spawn(move || {
            // The fingerprint of the last load *attempt*, successful or
            // not — a failed file is not retried until it changes or its
            // backoff expires.
            let mut last_attempted = baseline;
            let mut failed_attempts: u32 = 0;
            let mut skip_ticks: u32 = 0;
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                let Some(seen) = fingerprint(&path) else {
                    continue;
                };
                if Some(seen) == last_attempted {
                    if failed_attempts == 0 {
                        continue;
                    }
                    // Unchanged bytes that already failed: honor the
                    // backoff before retrying.
                    if skip_ticks > 0 {
                        skip_ticks -= 1;
                        continue;
                    }
                }
                last_attempted = Some(seen);
                match handle.reload_from_file(&path) {
                    Ok(_) => {
                        failed_attempts = 0;
                        skip_ticks = 0;
                    }
                    Err(_) => {
                        failed_attempts = failed_attempts.saturating_add(1);
                        skip_ticks = 1u32
                            .checked_shl(failed_attempts.min(8))
                            .unwrap_or(MAX_WATCHER_BACKOFF_TICKS)
                            .min(MAX_WATCHER_BACKOFF_TICKS);
                        let mut quarantine = path.clone().into_os_string();
                        quarantine.push(".quarantined");
                        if std::fs::rename(&path, PathBuf::from(quarantine)).is_ok() {
                            handle.quarantined.fetch_add(1, Ordering::Relaxed);
                            // The bad file is gone; the next fingerprint
                            // at this path is a fresh publish.
                            last_attempted = None;
                            skip_ticks = 0;
                        }
                    }
                }
            }
        });
        SnapshotWatcher {
            stop,
            thread: Some(thread),
        }
    }
}

/// Longest the watcher waits (in poll ticks) before retrying a snapshot
/// file that repeatedly failed to load and could not be quarantined.
pub const MAX_WATCHER_BACKOFF_TICKS: u32 = 32;

/// What the watcher compares between polls: modification time, length
/// and the file's `(dev, ino)` identity. `publish_bytes` renames a fresh
/// inode into place, so two same-length publishes inside one mtime tick
/// still differ; without the inode they alias and the second is never
/// loaded.
type Fingerprint = (SystemTime, u64, u64, u64);

fn fingerprint(path: &Path) -> Option<Fingerprint> {
    use std::os::unix::fs::MetadataExt;
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len(), meta.dev(), meta.ino()))
}

/// Guard for a running snapshot watcher thread; stops and joins it on
/// drop.
#[derive(Debug)]
pub struct SnapshotWatcher {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SnapshotWatcher {
    /// Stops the poll loop and joins the thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().ok();
        }
    }
}

impl Drop for SnapshotWatcher {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slide_core::config::{LshLayerConfig, NetworkConfig};
    use slide_core::{Network, SlideError};
    use slide_data::synth::{generate, SyntheticConfig};
    use slide_data::SparseVector;

    fn tiny_network(seed: u64) -> (Network, slide_data::synth::SyntheticData) {
        let data = generate(&SyntheticConfig::tiny().with_seed(2));
        let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(seed)
            .build()
            .unwrap();
        (Network::new(config).unwrap(), data)
    }

    #[test]
    fn swap_increments_epoch_and_serves_new_engine() {
        let (a, data) = tiny_network(1);
        let (b, _) = tiny_network(2);
        let options = ServeOptions::default().with_top_k(1);
        let handle = EngineHandle::new(ServingEngine::new(a, options));
        assert_eq!(handle.epoch(), 1);

        let ex = &data.test.examples()[0];
        let direct_b = ServingEngine::new(
            Network::from_snapshot_bytes(&b.to_snapshot_bytes()).unwrap(),
            options,
        );
        let want = direct_b.predict(&ex.features).unwrap().topk.top1();

        let epoch = handle.reload_from_bytes(&b.to_snapshot_bytes()).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(handle.epoch(), 2);
        assert_eq!(handle.reloads(), 1);
        let (engine, epoch) = handle.current();
        assert_eq!(epoch, 2);
        assert_eq!(engine.predict(&ex.features).unwrap().topk.top1(), want);
    }

    #[test]
    fn failed_reload_keeps_old_engine() {
        let (a, data) = tiny_network(3);
        let handle = EngineHandle::new(ServingEngine::new(a, ServeOptions::default()));
        let err = handle.reload_from_bytes(b"not a snapshot").unwrap_err();
        assert!(matches!(err, ServeError::Core(_)));
        assert_eq!(handle.epoch(), 1);
        assert_eq!(handle.reload_failures(), 1);
        // Still serving.
        let (engine, _) = handle.current();
        assert!(engine.predict(&data.test.examples()[0].features).is_ok());
    }

    #[test]
    fn in_flight_holders_keep_the_old_epoch() {
        let (a, _) = tiny_network(4);
        let (b, _) = tiny_network(5);
        let handle = EngineHandle::new(ServingEngine::new(a, ServeOptions::default()));
        let (old_engine, old_epoch) = handle.current();
        handle.reload_from_bytes(&b.to_snapshot_bytes()).unwrap();
        // The pre-reload holder still owns a working epoch-1 engine.
        assert_eq!(old_epoch, 1);
        assert!(Arc::strong_count(&old_engine) >= 1);
        let (new_engine, new_epoch) = handle.current();
        assert_eq!(new_epoch, 2);
        assert!(!Arc::ptr_eq(&old_engine, &new_engine));
    }

    #[test]
    fn reload_restores_configured_top_k_on_a_wider_model() {
        // A 4-class first model must not permanently clamp the
        // configured top_k: after hot-reloading a 60-class model, the
        // default request serves the operator's 10 again.
        let narrow = NetworkConfig::builder(32, 4)
            .hidden(8)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(1)
            .build()
            .unwrap();
        let wide = NetworkConfig::builder(32, 60)
            .hidden(8)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(2)
            .build()
            .unwrap();
        let options = ServeOptions::default().with_top_k(10);
        let handle = EngineHandle::new(ServingEngine::new(Network::new(narrow).unwrap(), options));
        assert_eq!(handle.engine().default_top_k(), 4);
        assert_eq!(handle.engine().options().top_k, 10);
        let bytes = Network::new(wide).unwrap().to_snapshot_bytes();
        handle.reload_from_bytes(&bytes).unwrap();
        assert_eq!(handle.engine().default_top_k(), 10);
    }

    #[test]
    fn failed_reload_tracks_last_good_and_consecutive_failures() {
        let (a, _) = tiny_network(11);
        let (b, _) = tiny_network(12);
        let handle = EngineHandle::new(ServingEngine::new(a, ServeOptions::default()));
        assert_eq!(handle.last_good_epoch(), 1);
        for i in 1..=3u64 {
            handle.reload_from_bytes(b"junk").unwrap_err();
            assert_eq!(handle.consecutive_reload_failures(), i);
            assert_eq!(handle.last_good_epoch(), 1, "still on the good engine");
        }
        // A good reload clears the streak and advances last-good.
        handle.reload_from_bytes(&b.to_snapshot_bytes()).unwrap();
        assert_eq!(handle.consecutive_reload_failures(), 0);
        assert_eq!(handle.last_good_epoch(), 2);
        assert_eq!(handle.reload_failures(), 3, "total failures are kept");
    }

    #[test]
    fn a_shard_reloads_only_a_slice_of_its_own_range() {
        let (net, data) = tiny_network(17);
        let full = net.to_snapshot_bytes();
        let slices = slide_core::snapshot::slice_snapshot(&full, 3).unwrap();
        let options = ServeOptions::default()
            .with_top_k(3)
            .with_dense_fallback(false);
        let shard = ServingEngine::from_slice_bytes(&slices[1], options).unwrap();
        let handle = EngineHandle::new(shard);
        let answers = |h: &EngineHandle| -> Vec<Vec<(u32, u32)>> {
            let engine = h.engine();
            data.test
                .iter()
                .take(10)
                .map(|ex| engine.predict(&ex.features).unwrap().topk.to_bits())
                .collect()
        };
        let before = answers(&handle);
        let is_slice_error = |e: ServeError| {
            matches!(
                e,
                ServeError::Core(SlideError::Snapshot(SnapshotError::Slice(_)))
            )
        };

        // A full snapshot would install a full-width engine at offset 0.
        assert!(is_slice_error(handle.reload_from_bytes(&full).unwrap_err()));
        // Another shard's slice would serve the wrong range.
        let dir = std::env::temp_dir().join(format!("slide_shard_reload_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.slideslice");
        slide_core::snapshot::publish_bytes(&path, &slices[2]).unwrap();
        assert!(is_slice_error(handle.reload_from_file(&path).unwrap_err()));
        assert_eq!(handle.epoch(), 1);
        assert_eq!(handle.reload_failures(), 2);
        assert!(handle.engine().class_offset() > 0);
        assert_eq!(answers(&handle), before);

        // Its own slice, re-published, reloads with identical answers.
        slide_core::snapshot::publish_bytes(&path, &slices[1]).unwrap();
        assert_eq!(handle.reload_from_file(&path).unwrap(), 2);
        assert_eq!(handle.consecutive_reload_failures(), 0);
        assert_eq!(answers(&handle), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checksummed slice whose header `total` and embedded output
    /// width both claim 2^28 neurons is structurally valid, but restoring
    /// it draws the RNG `total × fan_in` times. A shard must reject the
    /// foreign range from the parse alone, before any restore.
    #[test]
    fn a_shard_rejects_a_huge_foreign_slice_before_restoring_it() {
        let (net, data) = tiny_network(18);
        let slices = slide_core::snapshot::slice_snapshot(&net.to_snapshot_bytes(), 3).unwrap();
        let options = ServeOptions::default().with_top_k(3);
        let handle =
            EngineHandle::new(ServingEngine::from_slice_bytes(&slices[1], options).unwrap());
        let answers = |h: &EngineHandle| -> Vec<Vec<(u32, u32)>> {
            let engine = h.engine();
            data.test
                .iter()
                .take(10)
                .map(|ex| engine.predict(&ex.features).unwrap().topk.to_bits())
                .collect()
        };
        let before = answers(&handle);

        // Slice header `total` at byte 32; the embedded config's output
        // `units` at byte 59 of the snapshot prefix, which starts at 48.
        let huge = 1u64 << 28;
        let mut crafted = slices[1].clone();
        let units = data.train.label_dim() as u64;
        for at in [32, 48 + 59] {
            assert_eq!(crafted[at..at + 8], units.to_le_bytes(), "field at {at}");
            crafted[at..at + 8].copy_from_slice(&huge.to_le_bytes());
        }
        let n = crafted.len();
        let check = slide_data::cache::fnv1a(&crafted[..n - 8]).to_le_bytes();
        crafted[n - 8..].copy_from_slice(&check);

        let t0 = std::time::Instant::now();
        let err = handle.reload_from_bytes(&crafted).unwrap_err();
        let took = t0.elapsed();
        assert!(
            matches!(
                err,
                ServeError::Core(SlideError::Snapshot(SnapshotError::Slice(_)))
            ),
            "{err}"
        );
        assert!(took < Duration::from_secs(1), "rejection took {took:?}");
        assert_eq!(handle.epoch(), 1);
        assert_eq!(answers(&handle), before);
    }

    #[test]
    fn watcher_quarantines_a_corrupt_publish_and_recovers_on_the_next_good_one() {
        let (a, _) = tiny_network(13);
        let (b, _) = tiny_network(14);
        let dir = std::env::temp_dir().join(format!("slide_quarantine_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.slidesnap");
        a.save_snapshot(&path).unwrap();

        let handle =
            Arc::new(EngineHandle::from_snapshot_file(&path, ServeOptions::default()).unwrap());
        let watcher = handle.spawn_watcher(path.clone(), Duration::from_millis(10));

        // Publish garbage (atomically, so the watcher sees a complete
        // bad file, not a torn one).
        std::thread::sleep(Duration::from_millis(30));
        slide_core::snapshot::publish_bytes(&path, b"definitely not a snapshot").unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.reload_failures() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(handle.reload_failures() >= 1, "bad publish never attempted");
        assert_eq!(handle.epoch(), 1, "bad publish must not advance the epoch");
        assert_eq!(handle.last_good_epoch(), 1);

        // The bad file was moved aside.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.quarantined() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(handle.quarantined(), 1);
        let mut qpath = path.clone().into_os_string();
        qpath.push(".quarantined");
        assert!(std::path::PathBuf::from(qpath).exists());

        // The next good publish is picked up promptly.
        b.save_snapshot(&path).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.epoch() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        watcher.stop();
        assert!(handle.epoch() >= 2, "good republish never loaded");
        assert_eq!(handle.consecutive_reload_failures(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watcher_never_installs_a_slow_non_atomic_write() {
        // Regression for the mid-copy race: a publisher that streams the
        // snapshot into place chunk by chunk (the pre-atomic-writer
        // behavior) must never get a torn prefix installed as an engine.
        let (a, _) = tiny_network(15);
        let (b, _) = tiny_network(16);
        let dir = std::env::temp_dir().join(format!("slide_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.slidesnap");
        a.save_snapshot(&path).unwrap();

        let handle =
            Arc::new(EngineHandle::from_snapshot_file(&path, ServeOptions::default()).unwrap());
        let watcher = handle.spawn_watcher(path.clone(), Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));

        // Slow non-atomic rewrite: truncate, then dribble the bytes out
        // over many poll intervals.
        let bytes = b.to_snapshot_bytes();
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&path).unwrap();
            for chunk in bytes.chunks(64.max(bytes.len() / 40)) {
                f.write_all(chunk).unwrap();
                f.flush().unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        std::thread::sleep(Duration::from_millis(100));
        watcher.stop();
        // Every mid-write observation must have been rejected: the epoch
        // either stayed at 1 (torn reads failed; the finished file may
        // have been quarantined mid-write) or reached exactly 2 (the
        // watcher happened to only see the completed file). What can
        // NEVER happen is an engine built from a torn prefix — the
        // checksum rejects it — so any swap that did land serves the
        // complete snapshot b.
        if handle.epoch() > 1 {
            let (engine, _) = handle.current();
            assert_eq!(
                engine.network().to_snapshot_bytes().len(),
                bytes.len(),
                "installed engine must come from the complete file"
            );
        } else {
            assert_eq!(handle.last_good_epoch(), 1);
            let (engine, _) = handle.current();
            // Still serving the original snapshot a.
            assert!(engine
                .predict(&SparseVector::from_pairs([(0, 1.0)]))
                .is_ok());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watcher_reloads_when_the_file_changes() {
        let (a, _) = tiny_network(6);
        let (b, _) = tiny_network(7);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("slide_watch_{}.slidesnap", std::process::id()));
        a.save_snapshot(&path).unwrap();

        let handle =
            Arc::new(EngineHandle::from_snapshot_file(&path, ServeOptions::default()).unwrap());
        let watcher = handle.spawn_watcher(path.clone(), Duration::from_millis(20));
        b.save_snapshot(&path).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.epoch() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        watcher.stop();
        std::fs::remove_file(&path).ok();
        assert!(handle.epoch() >= 2, "watcher never picked up the rewrite");
    }

    /// Regression: two same-length publishes inside one mtime tick. The
    /// replacement is renamed into place with its mtime forced equal to
    /// the file it replaces, so only the inode tells them apart — a
    /// `(mtime, len)` fingerprint never loads it. A corrupt publish must
    /// still be attempted and quarantined, and the good one after it
    /// (same mtime again) must load.
    #[test]
    fn watcher_sees_same_length_publishes_within_one_mtime_tick() {
        let (a, _) = tiny_network(8);
        let (b, _) = tiny_network(9);
        let dir = std::env::temp_dir().join(format!("slide_same_tick_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.slidesnap");
        a.save_snapshot(&path).unwrap();
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
        let good = b.to_snapshot_bytes();
        let mut corrupt = a.to_snapshot_bytes();
        assert_eq!(good.len(), corrupt.len(), "same-config snapshots");
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        let publish_with_mtime = |bytes: &[u8]| {
            let tmp = dir.join("model.tmp");
            std::fs::write(&tmp, bytes).unwrap();
            let f = std::fs::File::options().write(true).open(&tmp).unwrap();
            f.set_modified(mtime).unwrap();
            drop(f);
            std::fs::rename(&tmp, &path).unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().modified().unwrap(), mtime);
        };

        let handle =
            Arc::new(EngineHandle::from_snapshot_file(&path, ServeOptions::default()).unwrap());
        let watcher = handle.spawn_watcher(path.clone(), Duration::from_millis(5));
        let wait = |done: &dyn Fn() -> bool| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !done() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            done()
        };

        publish_with_mtime(&corrupt);
        assert!(
            wait(&|| handle.quarantined() == 1),
            "corrupt publish never attempted"
        );
        assert_eq!(handle.epoch(), 1);
        publish_with_mtime(&good);
        assert!(wait(&|| handle.epoch() == 2), "good publish never loaded");
        watcher.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: the baseline fingerprint must be taken synchronously
    /// by `spawn_watcher`, not lazily on the watcher thread. Taken
    /// lazily, a publish landing between `spawn_watcher` returning and
    /// the thread's first schedule gets fingerprinted as "already
    /// attempted" and is silently never loaded — so publishing
    /// *immediately* after spawn must still reload.
    #[test]
    fn watcher_sees_a_publish_landing_immediately_after_spawn() {
        let (a, _) = tiny_network(6);
        let (b, _) = tiny_network(7);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "slide_watch_races_{}.slidesnap",
            std::process::id()
        ));
        a.save_snapshot(&path).unwrap();

        let handle =
            Arc::new(EngineHandle::from_snapshot_file(&path, ServeOptions::default()).unwrap());
        let watcher = handle.spawn_watcher(path.clone(), Duration::from_millis(20));
        // No sleep: race the watcher thread's startup on purpose.
        b.save_snapshot(&path).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.epoch() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        watcher.stop();
        std::fs::remove_file(&path).ok();
        assert!(
            handle.epoch() >= 2,
            "a publish racing the watcher's startup was never loaded"
        );
    }
}
