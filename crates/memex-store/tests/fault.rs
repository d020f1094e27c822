//! Deterministic fault-injection harness for the storage substrate.
//!
//! Everything here is reproducible from a seed: `MemStorage` models an OS
//! page cache over a disk (synced bytes are durable, unsynced writes may
//! vanish at a crash — possibly torn mid-write), and `FaultyStorage`
//! injects I/O errors from a seeded schedule or a scripted `FaultControl`.
//!
//! The central property is **prefix consistency**: after running an
//! arbitrary operation sequence against a storage engine, crashing at an
//! arbitrary point, and reopening, the recovered state must equal the
//! model state after some prefix `p` of the acknowledged operations with
//! `synced ≤ p ≤ acked` — every operation covered by a sync survives, and
//! nothing that was never acknowledged is ever resurrected.
//!
//! The harness runs one test body against both shipping stores — the
//! metadata tier's B+Tree `KvStore` and the index's `LsmStore` — through
//! the test-local [`Store`] enum (the [`Rig`] below knows how to crash and
//! reopen each). Store internals — checkpoint windows for the B+Tree,
//! seal/compaction barriers for the LSM — get their own scripted
//! schedules on top.
//!
//! Run a specific schedule with `PROPTEST_SEED=<n> cargo test -p
//! memex-store --test fault` (this is what CI's fault-matrix job does).

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;

use memex_obs::MetricsRegistry;
use memex_store::error::StoreResult;
use memex_store::kv::{KvStore, KvStoreOptions};
use memex_store::lsm::{LsmOptions, LsmStore};
use memex_store::vfs::{
    FaultConfig, FaultControl, FaultyDir, FaultyStorage, MemDir, MemDirHandle, MemHandle,
    MemStorage, Storage,
};
use memex_store::wal::{Wal, WalRecord};

// ---------------------------------------------------------------------------
// Operation model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    /// `Wal::sync` — establishes a durability watermark.
    Sync,
    /// Full checkpoint — flushes the tree and truncates the log.
    Checkpoint,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet so operations collide often (the interesting case).
    proptest::collection::vec(
        prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(0u8)],
        1..6,
    )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (key_strategy(), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(k, v)| Op::Put(k, v)),
        2 => key_strategy().prop_map(Op::Delete),
        1 => Just(Op::Sync),
        1 => Just(Op::Checkpoint),
    ]
}

/// Reference state after the first `p` operations.
fn model_at(ops: &[Op], p: usize) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut m = BTreeMap::new();
    for op in &ops[..p] {
        match op {
            Op::Put(k, v) => {
                m.insert(k.clone(), v.clone());
            }
            Op::Delete(k) => {
                m.remove(k);
            }
            Op::Sync | Op::Checkpoint => {}
        }
    }
    m
}

fn small_opts() -> KvStoreOptions {
    KvStoreOptions {
        // Small pool so the no-steal buffer pool overflows and exercises
        // the sync-log-then-flush path mid-run.
        pool_capacity: 8,
        // The harness drives checkpoints explicitly.
        checkpoint_bytes: u64::MAX,
        sync_every_append: false,
    }
}

fn reopen(wal: &MemHandle, db: &MemHandle, opts: KvStoreOptions) -> KvStore {
    KvStore::open_with_storage(
        Box::new(MemStorage::from_bytes(wal.current_bytes())),
        Box::new(MemStorage::from_bytes(db.current_bytes())),
        opts,
    )
    .expect("reopen after crash must succeed")
}

fn contents(kv: &mut KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    kv.scan(Bound::Unbounded, Bound::Unbounded).unwrap()
}

// ---------------------------------------------------------------------------
// Two-store rig
// ---------------------------------------------------------------------------

/// Which store a rig runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    BTree,
    Lsm,
}

impl Kind {
    const BOTH: [Kind; 2] = [Kind::BTree, Kind::Lsm];

    fn name(self) -> &'static str {
        match self {
            Kind::BTree => "btree",
            Kind::Lsm => "lsm",
        }
    }
}

/// Either shipping store, behind the calls the harness makes.
enum Store {
    BTree(KvStore),
    Lsm(LsmStore),
}

impl Store {
    fn put(&mut self, key: &[u8], value: &[u8]) -> StoreResult<()> {
        match self {
            Store::BTree(kv) => kv.put(key, value).map(drop),
            Store::Lsm(lsm) => lsm.put(key, value),
        }
    }

    fn delete(&mut self, key: &[u8]) -> StoreResult<()> {
        match self {
            Store::BTree(kv) => kv.delete(key).map(drop),
            Store::Lsm(lsm) => lsm.delete(key),
        }
    }

    fn get(&mut self, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        match self {
            Store::BTree(kv) => kv.get(key),
            Store::Lsm(lsm) => lsm.get(key),
        }
    }

    fn scan_all(&mut self) -> Vec<(Vec<u8>, Vec<u8>)> {
        match self {
            Store::BTree(kv) => contents(kv),
            Store::Lsm(lsm) => lsm.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
        }
    }

    /// Make every acked write durable (WAL fsync).
    fn sync(&mut self) -> StoreResult<()> {
        match self {
            Store::BTree(kv) => kv.wal_mut().sync(),
            Store::Lsm(lsm) => lsm.sync(),
        }
    }

    /// Durability barrier + log truncation: the B+Tree flushes pages, the
    /// LSM seals its memtable into a run.
    fn checkpoint(&mut self) -> StoreResult<()> {
        match self {
            Store::BTree(kv) => kv.checkpoint(),
            Store::Lsm(lsm) => lsm.seal(),
        }
    }

    fn check(&mut self) -> StoreResult<()> {
        match self {
            Store::BTree(kv) => kv.check(),
            Store::Lsm(lsm) => lsm.check(),
        }
    }
}

fn small_lsm_opts() -> LsmOptions {
    LsmOptions {
        // Tiny budget so random schedules seal mid-stream (the
        // interesting case: crashes land between WAL and run state).
        memtable_bytes: 512,
        compact_min_runs: 3,
        // The harness drives compaction explicitly and deterministically.
        background_compaction: false,
        sync_every_append: false,
    }
}

/// Where a crash lands for each store: handles on the raw in-memory
/// devices, so the harness can cut power (`crash`) and reopen over the
/// surviving bytes.
enum CrashSite {
    BTree { wal: MemHandle, db: MemHandle },
    Lsm { dir: MemDir, handle: MemDirHandle },
}

impl CrashSite {
    /// Power cut: each device keeps its durable bytes plus a
    /// seeded-random prefix of the unsynced writes (final write possibly
    /// torn).
    fn crash(&self, seed: u64) {
        match self {
            CrashSite::BTree { wal, db } => {
                wal.crash(seed);
                db.crash(seed ^ 0x9E37_79B9_7F4A_7C15);
            }
            CrashSite::Lsm { handle, .. } => handle.crash(seed),
        }
    }

    /// Reopen the store over whatever the crash left behind.
    fn reopen(&self) -> Store {
        match self {
            CrashSite::BTree { wal, db } => Store::BTree(reopen(wal, db, small_opts())),
            CrashSite::Lsm { dir, .. } => Store::Lsm(
                LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts())
                    .expect("reopen after crash must succeed"),
            ),
        }
    }
}

/// One store under test plus the crash controls for its storage.
struct Rig {
    engine: Store,
    site: CrashSite,
}

fn open_rig(kind: Kind) -> Rig {
    match kind {
        Kind::BTree => {
            let wal_storage = MemStorage::new();
            let wal = wal_storage.handle();
            let db_storage = MemStorage::new();
            let db = db_storage.handle();
            let kv = KvStore::open_with_storage(
                Box::new(wal_storage),
                Box::new(db_storage),
                small_opts(),
            )
            .unwrap();
            Rig {
                engine: Store::BTree(kv),
                site: CrashSite::BTree { wal, db },
            }
        }
        Kind::Lsm => {
            let dir = MemDir::new();
            let handle = dir.handle();
            let store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts()).unwrap();
            Rig {
                engine: Store::Lsm(store),
                site: CrashSite::Lsm { dir, handle },
            }
        }
    }
}

/// Like [`open_rig`], but the store's storage sits behind a
/// [`FaultControl`] script (the B+Tree faults its WAL device; the LSM
/// faults the whole directory — WAL, runs and manifest alike). Reopening
/// via [`CrashSite::reopen`] always goes through the unfaulted devices.
fn open_faulty_rig(kind: Kind, cfg: FaultConfig) -> (Rig, FaultControl) {
    match kind {
        Kind::BTree => {
            let wal_inner = MemStorage::new();
            let wal = wal_inner.handle();
            let wal_storage = FaultyStorage::new(wal_inner, cfg);
            let ctl = wal_storage.control();
            let db_storage = MemStorage::new();
            let db = db_storage.handle();
            let kv = KvStore::open_with_storage(
                Box::new(wal_storage),
                Box::new(db_storage),
                small_opts(),
            )
            .unwrap();
            (
                Rig {
                    engine: Store::BTree(kv),
                    site: CrashSite::BTree { wal, db },
                },
                ctl,
            )
        }
        Kind::Lsm => {
            let dir = MemDir::new();
            let handle = dir.handle();
            let faulty = FaultyDir::new(dir.clone(), cfg);
            let ctl = faulty.control();
            let store = LsmStore::open_with_dir(Arc::new(faulty), small_lsm_opts()).unwrap();
            (
                Rig {
                    engine: Store::Lsm(store),
                    site: CrashSite::Lsm { dir, handle },
                },
                ctl,
            )
        }
    }
}

/// Does `recovered` equal `model_at(ops, p)` for some `synced <= p <=
/// ops.len()`? Returns the matching prefix length.
fn matching_prefix(recovered: &[(Vec<u8>, Vec<u8>)], ops: &[Op], synced: usize) -> Option<usize> {
    (synced..=ops.len()).find(|&p| {
        let m = model_at(ops, p);
        recovered.len() == m.len()
            && recovered
                .iter()
                .all(|(k, v)| m.get(k).map(|mv| mv == v).unwrap_or(false))
    })
}

// ---------------------------------------------------------------------------
// Crash-recovery property
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Run a random op sequence, crash at an arbitrary (seeded) point in
    /// the unsynced write stream, reopen, and check prefix consistency:
    /// the recovered state is `model(p)` for some `synced <= p <= acked`.
    /// One body, both stores — the LSM's tiny memtable budget forces
    /// mid-stream auto-seals, so crashes land between WAL, run files and
    /// manifest records, not just inside the log.
    #[test]
    fn crash_recovery_is_prefix_consistent(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        crash_seed in any::<u64>(),
    ) {
        for kind in Kind::BOTH {
            let Rig { mut engine, site } = open_rig(kind);

            let mut synced = 0usize;
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Put(k, v) => {
                        engine.put(k, v).unwrap();
                    }
                    Op::Delete(k) => {
                        engine.delete(k).unwrap();
                    }
                    Op::Sync => {
                        engine.sync().unwrap();
                        synced = i + 1;
                    }
                    Op::Checkpoint => {
                        engine.checkpoint().unwrap();
                        synced = i + 1;
                    }
                }
            }
            let acked = ops.len();
            drop(engine);

            site.crash(crash_seed);

            let mut engine = site.reopen();
            engine.check().unwrap();
            let recovered = engine.scan_all();

            prop_assert!(
                matching_prefix(&recovered, &ops, synced).is_some(),
                "{}: recovered state is not a prefix of acked ops \
                 (synced={synced}, acked={acked}, crash_seed={crash_seed}, \
                  recovered {} entries)",
                kind.name(),
                recovered.len(),
            );

            // And the reopened store keeps working.
            engine.put(b"post-crash", b"ok").unwrap();
            prop_assert_eq!(engine.get(b"post-crash").unwrap().unwrap(), b"ok".to_vec());
        }
    }

    /// Cut the WAL at *every* byte offset: replay must never fail, must
    /// yield a prefix of the appended records, and — after its torn-tail
    /// repair — must leave a log that appends and replays cleanly.
    #[test]
    fn wal_cut_at_every_byte_offset_recovers_record_prefix(
        kvs in proptest::collection::vec((key_strategy(), key_strategy()), 1..10),
    ) {
        let storage = MemStorage::new();
        let handle = storage.handle();
        let mut wal = Wal::with_storage(Box::new(storage)).unwrap();
        for (k, v) in &kvs {
            wal.append(&WalRecord::Put { key: k.clone(), value: v.clone() }).unwrap();
        }
        let bytes = handle.current_bytes();

        for cut in 0..=bytes.len() {
            let mut wal =
                Wal::with_storage(Box::new(MemStorage::from_bytes(bytes[..cut].to_vec())))
                    .unwrap();
            let replay = wal.replay().unwrap_or_else(|e| {
                panic!("replay failed at cut {cut}/{}: {e}", bytes.len())
            });
            prop_assert!(replay.records.len() <= kvs.len());
            for (i, (_, rec)) in replay.records.iter().enumerate() {
                let (k, v) = &kvs[i];
                prop_assert_eq!(
                    rec,
                    &WalRecord::Put { key: k.clone(), value: v.clone() },
                    "cut at {} replayed a record that was never appended", cut
                );
            }
            // The repaired log accepts and recovers a fresh append.
            wal.append(&WalRecord::Put { key: b"x".to_vec(), value: b"y".to_vec() })
                .unwrap();
            let again = wal.replay().unwrap();
            prop_assert!(!again.torn_tail, "repair at cut {} left garbage", cut);
            prop_assert_eq!(again.records.len(), replay.records.len() + 1);
        }
    }

    /// Flip a byte at *every* offset of an intact WAL: the CRC framing
    /// must confine the damage — replay never fails and yields a prefix
    /// of the appended records (everything before the corrupt frame).
    #[test]
    fn wal_byte_flip_at_every_offset_yields_record_prefix(
        kvs in proptest::collection::vec((key_strategy(), key_strategy()), 1..8),
        xor in 1u8..=255,
    ) {
        let storage = MemStorage::new();
        let handle = storage.handle();
        let mut wal = Wal::with_storage(Box::new(storage)).unwrap();
        for (k, v) in &kvs {
            wal.append(&WalRecord::Put { key: k.clone(), value: v.clone() }).unwrap();
        }
        let bytes = handle.current_bytes();

        for off in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[off] ^= xor;
            let mut wal = Wal::with_storage(Box::new(MemStorage::from_bytes(mutated))).unwrap();
            let replay = wal.replay().unwrap_or_else(|e| {
                panic!("replay failed with flip at {off}: {e}")
            });
            prop_assert!(replay.torn_tail, "flip at {} went undetected", off);
            prop_assert!(replay.records.len() < kvs.len());
            for (i, (_, rec)) in replay.records.iter().enumerate() {
                let (k, v) = &kvs[i];
                prop_assert_eq!(
                    rec,
                    &WalRecord::Put { key: k.clone(), value: v.clone() },
                    "flip at {} corrupted an earlier record", off
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scripted checkpoint-window faults
// ---------------------------------------------------------------------------

/// `KvStore::checkpoint` step 1 is `Pager::flush`, which must *fsync* the
/// data file before the WAL is truncated. Fail that fsync: the checkpoint
/// must abort with the log intact, so a crash in the window loses nothing.
#[test]
fn failed_data_fsync_aborts_checkpoint_with_wal_intact() {
    let wal_storage = MemStorage::new();
    let wal_handle = wal_storage.handle();
    let db_inner = MemStorage::new();
    let db_handle = db_inner.handle();
    let db_storage = FaultyStorage::new(db_inner, FaultConfig::default());
    let ctl = db_storage.control();

    let mut kv =
        KvStore::open_with_storage(Box::new(wal_storage), Box::new(db_storage), small_opts())
            .unwrap();
    for i in 0..5u8 {
        kv.put(&[b'k', i], &[i]).unwrap();
    }
    kv.wal_mut().sync().unwrap();

    ctl.fail_next_syncs(1);
    assert!(
        kv.checkpoint().is_err(),
        "checkpoint must surface the fsync failure"
    );
    assert_eq!(ctl.injected(), (0, 0, 0, 1));

    // Worst-case crash in the window: only durable bytes survive. The WAL
    // was synced and never truncated, so everything is recoverable.
    let mut kv2 = KvStore::open_with_storage(
        Box::new(MemStorage::from_bytes(wal_handle.durable_bytes())),
        Box::new(MemStorage::from_bytes(db_handle.durable_bytes())),
        small_opts(),
    )
    .unwrap();
    kv2.check().unwrap();
    for i in 0..5u8 {
        assert_eq!(kv2.get(&[b'k', i]).unwrap().unwrap(), vec![i]);
    }

    // The running store stays usable: the retry succeeds and nothing is lost.
    kv.checkpoint().unwrap();
    for i in 0..5u8 {
        assert_eq!(kv.get(&[b'k', i]).unwrap().unwrap(), vec![i]);
    }
}

/// Fail the *log-side* sync inside the checkpoint (after the data flush
/// already fsynced the tree). Every crash outcome in that window is safe:
/// the old log replays idempotently over the flushed tree, or the
/// truncation landed and the tree alone carries the state.
#[test]
fn failed_log_sync_during_checkpoint_is_crash_safe() {
    let wal_inner = MemStorage::new();
    let wal_handle = wal_inner.handle();
    let wal_storage = FaultyStorage::new(wal_inner, FaultConfig::default());
    let ctl = wal_storage.control();
    let db_storage = MemStorage::new();
    let db_handle = db_storage.handle();

    let mut kv =
        KvStore::open_with_storage(Box::new(wal_storage), Box::new(db_storage), small_opts())
            .unwrap();
    for i in 0..5u8 {
        kv.put(&[b'k', i], &[i]).unwrap();
    }
    kv.wal_mut().sync().unwrap();

    // The data flush fsyncs the db side (not scripted); the next *wal*
    // sync — inside Wal::truncate — fails.
    ctl.fail_next_syncs(1);
    assert!(kv.checkpoint().is_err());

    // Crash with every possible surviving prefix of the pending log
    // writes: recovery must always land on exactly the acked state.
    for seed in 0..16u64 {
        let wal_bytes = MemStorage::from_bytes(wal_handle.durable_bytes());
        let wal_probe = wal_bytes.handle();
        // Re-stage the pending ops on a copy and crash it.
        {
            let mut staged: Box<dyn Storage> = Box::new(wal_bytes);
            let _ = staged.set_len(0); // the un-synced truncation
        }
        wal_probe.crash(seed);
        let mut kv2 = KvStore::open_with_storage(
            Box::new(MemStorage::from_bytes(wal_probe.current_bytes())),
            Box::new(MemStorage::from_bytes(db_handle.current_bytes())),
            small_opts(),
        )
        .unwrap();
        kv2.check().unwrap();
        for i in 0..5u8 {
            assert_eq!(
                kv2.get(&[b'k', i]).unwrap().unwrap(),
                vec![i],
                "seed {seed}: acked key lost in checkpoint window"
            );
        }
    }

    // The running store recovers too: retry and carry on.
    kv.checkpoint().unwrap();
    kv.put(b"after", b"ok").unwrap();
    assert_eq!(kv.get(b"after").unwrap().unwrap(), b"ok");
}

/// The review-repro schedule, folded into the harness: a checkpoint runs
/// with *unsynced* WAL records pending, `Pager::flush` lands the new tree
/// durably, and the crash hits before `Wal::truncate` completes. The
/// write-ahead order inside `KvStore::checkpoint` (log sync before data
/// flush) must have made those records durable, otherwise recovery
/// replays a stale log prefix over the newer tree and rolls acked writes
/// backward — the exact bug this schedule originally caught.
#[test]
fn checkpoint_window_crash_with_unsynced_wal_records() {
    let wal_inner = MemStorage::new();
    let wal_handle = wal_inner.handle();
    let wal_storage = FaultyStorage::new(wal_inner, FaultConfig::default());
    let ctl = wal_storage.control();
    let db_storage = MemStorage::new();
    let db_handle = db_storage.handle();

    let mut kv =
        KvStore::open_with_storage(Box::new(wal_storage), Box::new(db_storage), small_opts())
            .unwrap();
    kv.put(b"a", b"1").unwrap();
    kv.wal_mut().sync().unwrap(); // op1 durable in the log
    kv.put(b"a", b"2").unwrap(); // op2: acked, log record NOT synced
    kv.put(b"c", b"3").unwrap(); // op3: acked, log record NOT synced

    // Fail the truncation: models a crash after the data flush, inside
    // the checkpoint window.
    ctl.fail_next_set_lens(1);
    assert!(kv.checkpoint().is_err());
    drop(kv);

    // Power cut: only durable bytes survive on each device.
    let mut kv2 = KvStore::open_with_storage(
        Box::new(MemStorage::from_bytes(wal_handle.durable_bytes())),
        Box::new(MemStorage::from_bytes(db_handle.durable_bytes())),
        small_opts(),
    )
    .unwrap();
    kv2.check().unwrap();
    let a = kv2.get(b"a").unwrap().map(|v| v.to_vec());
    let c = kv2.get(b"c").unwrap().map(|v| v.to_vec());
    let is_prefix = matches!(
        (a.as_deref(), c.as_deref()),
        (Some(b"1"), None) | (Some(b"2"), None) | (Some(b"2"), Some(b"3"))
    );
    assert!(
        is_prefix,
        "recovered state a={a:?} c={c:?} matches no prefix of the acked ops"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generalised checkpoint-window schedule for the seed matrix: random
    /// ops with random sync points, then a checkpoint whose truncation
    /// fails, then a crash. The checkpoint's leading log sync succeeded,
    /// so *every* acked op must survive — recovery lands on exactly the
    /// acked state, regardless of which unsynced device writes the crash
    /// kept.
    #[test]
    fn failed_truncate_checkpoint_recovers_every_acked_op(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        crash_seed in any::<u64>(),
    ) {
        let wal_inner = MemStorage::new();
        let wal_handle = wal_inner.handle();
        let wal_storage = FaultyStorage::new(wal_inner, FaultConfig::default());
        let ctl = wal_storage.control();
        let db_storage = MemStorage::new();
        let db_handle = db_storage.handle();

        let mut kv = KvStore::open_with_storage(
            Box::new(wal_storage),
            Box::new(db_storage),
            small_opts(),
        )
        .unwrap();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    kv.put(k, v).unwrap();
                }
                Op::Delete(k) => {
                    kv.delete(k).unwrap();
                }
                // Only a *durability* op here — the harness drives the one
                // interesting checkpoint itself, below.
                Op::Sync | Op::Checkpoint => {
                    kv.wal_mut().sync().unwrap();
                }
            }
        }

        ctl.fail_next_set_lens(1);
        prop_assert!(kv.checkpoint().is_err(), "truncate failure must surface");
        drop(kv);

        // Crash: durable bytes survive; unsynced writes partially survive
        // per the seed. The failed set_len never reached the device, and
        // the checkpoint already synced the log and flushed the tree, so
        // the crash has nothing left to lose.
        wal_handle.crash(crash_seed);
        db_handle.crash(crash_seed ^ 0x9E37_79B9_7F4A_7C15);

        let mut kv2 = reopen(&wal_handle, &db_handle, small_opts());
        kv2.check().unwrap();
        let recovered = contents(&mut kv2);
        let m = model_at(&ops, ops.len());
        prop_assert_eq!(
            recovered.len(),
            m.len(),
            "checkpoint made every acked op durable; none may vanish"
        );
        for (k, v) in &recovered {
            prop_assert_eq!(m.get(k), Some(v));
        }
    }
}

/// A scripted write failure during an append must not acknowledge the
/// operation, corrupt the store, or poison later operations.
#[test]
fn failed_append_is_not_acked_and_store_survives() {
    let wal_inner = MemStorage::new();
    let wal_storage = FaultyStorage::new(wal_inner, FaultConfig::default());
    let ctl = wal_storage.control();
    let mut kv = KvStore::open_with_storage(
        Box::new(wal_storage),
        Box::new(MemStorage::new()),
        small_opts(),
    )
    .unwrap();

    kv.put(b"ok1", b"1").unwrap();
    ctl.fail_next_writes(1);
    assert!(kv.put(b"denied", b"x").is_err());
    assert!(
        kv.get(b"denied").unwrap().is_none(),
        "failed put must not be visible"
    );
    ctl.tear_next_write(3);
    assert!(kv.put(b"torn", b"x").is_err());
    assert!(kv.get(b"torn").unwrap().is_none());
    kv.put(b"ok2", b"2").unwrap();
    kv.check().unwrap();
    assert_eq!(kv.len(), 2);
    assert!(ctl.injected_total() >= 2);
}

// ---------------------------------------------------------------------------
// Scripted engine-internal barriers (seal, compaction)
// ---------------------------------------------------------------------------

/// March a single injected sync failure across every durability barrier
/// of each engine's checkpoint (B+Tree: leading log sync, truncation
/// sync; LSM: leading WAL sync, run-file sync, manifest sync, WAL
/// truncation sync — i.e. a crash mid-seal at each step), then cut power
/// and reopen. Whichever barrier failed, the recovered state must be a
/// model prefix no older than the last explicit sync.
#[test]
fn scripted_sync_barrier_faults_stay_prefix_consistent() {
    for kind in Kind::BOTH {
        let mut checkpoint_errors = 0u32;
        for barrier in 0..5u32 {
            for crash_seed in [3u64, 0xB44D_F00D] {
                let (mut rig, ctl) = open_faulty_rig(kind, FaultConfig::default());

                let mut acked: Vec<Op> = Vec::new();
                for i in 0..30u32 {
                    let k = format!("k{:02}", i % 6).into_bytes();
                    let v = format!("v{i}").into_bytes();
                    rig.engine.put(&k, &v).unwrap();
                    acked.push(Op::Put(k, v));
                }
                rig.engine.sync().unwrap();
                let mut synced = acked.len();
                for i in 0..4u32 {
                    let k = format!("x{i}").into_bytes();
                    rig.engine.put(&k, b"u").unwrap();
                    acked.push(Op::Put(k, b"u".to_vec()));
                }

                // Fail the (barrier+1)-th sync the checkpoint issues;
                // barriers past the checkpoint's sync count simply pass.
                ctl.fail_syncs_after(barrier, 1);
                if rig.engine.checkpoint().is_ok() {
                    synced = acked.len();
                } else {
                    checkpoint_errors += 1;
                }

                let Rig { engine, site } = rig;
                drop(engine);
                site.crash(crash_seed);

                let mut engine = site.reopen();
                engine.check().unwrap();
                let recovered = engine.scan_all();
                assert!(
                    matching_prefix(&recovered, &acked, synced).is_some(),
                    "{} barrier {barrier} seed {crash_seed}: \
                     recovery lost acked state (synced={synced})",
                    kind.name(),
                );
                engine.put(b"post-crash", b"ok").unwrap();
            }
        }
        assert!(
            checkpoint_errors > 0,
            "{}: no barrier ever failed — the sweep is vacuous",
            kind.name(),
        );
    }
}

/// Crash mid-seal between the (fully synced) run file and the manifest
/// record that would commit it. The staged manifest record may or may
/// not land at the crash, so recovery must *reconcile*: adopt the run if
/// its record became durable, delete it as an orphan otherwise — counted
/// in `store.recovery.orphan_runs` and never resurrected, its id never
/// re-allocated.
#[test]
fn crash_mid_seal_reconciles_manifest_against_partial_runs() {
    let mut saw_orphan = false;
    let mut saw_adopted = false;
    for crash_seed in [0u64, 1, 7, 42, 0x2000_0101] {
        let dir = MemDir::new();
        let handle = dir.handle();
        let faulty = FaultyDir::new(dir.clone(), FaultConfig::default());
        let ctl = faulty.control();
        let mut store = LsmStore::open_with_dir(Arc::new(faulty), small_lsm_opts()).unwrap();

        for i in 0..4u8 {
            store.put(&[b'k', i], &[i]).unwrap();
        }
        // Seal syncs: #1 leading WAL, #2 run file, #3 manifest. Fail #3:
        // the run file is durable, its manifest record staged but not.
        ctl.fail_syncs_after(2, 1);
        assert!(store.seal().is_err(), "manifest sync failure must surface");
        let orphan_name = handle
            .names()
            .into_iter()
            .find(|n| n.starts_with("run-"))
            .expect("the synced run file must remain for recovery to reconcile");
        drop(store);

        handle.crash(crash_seed);

        let mut store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts())
            .expect("recovery must reconcile the manifest against partial runs");
        let registry = MetricsRegistry::new();
        store.attach_registry(&registry);
        let orphans = registry.snapshot().counter("store.recovery.orphan_runs");
        assert_eq!(orphans, store.stats().recovered_orphan_runs);
        // Every acked op was WAL-durable (the seal's leading log sync),
        // so the full state survives whether or not the record landed.
        for i in 0..4u8 {
            assert_eq!(
                store.get(&[b'k', i]).unwrap().unwrap(),
                vec![i],
                "seed {crash_seed}: acked op lost in the seal window"
            );
        }
        if orphans > 0 {
            saw_orphan = true;
            assert!(
                !handle.names().contains(&orphan_name),
                "seed {crash_seed}: orphan run deleted but still listed"
            );
        } else {
            saw_adopted = true;
        }

        // The orphan's id is burned: the recovered store allocates past
        // it, so the deleted file's name is never rewritten while a copy
        // of its manifest record could still be in flight.
        store.put(b"fresh", b"1").unwrap();
        store.seal().unwrap();
        if orphans > 0 {
            assert!(
                handle.names().iter().all(|n| n != &orphan_name),
                "seed {crash_seed}: orphan run id was re-allocated"
            );
        }
        drop(store);

        // Reopen again without a crash: the orphan must not come back,
        // and the sealed state reads back whole.
        let store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts()).unwrap();
        assert_eq!(
            store.stats().recovered_orphan_runs,
            0,
            "seed {crash_seed}: orphan resurrected on the second open"
        );
        for i in 0..4u8 {
            assert_eq!(store.get(&[b'k', i]).unwrap().unwrap(), vec![i]);
        }
        assert_eq!(store.get(b"fresh").unwrap().unwrap(), b"1");
    }
    // The seed set must exercise both reconciliation outcomes, or the
    // test silently stops covering one of them.
    assert!(
        saw_orphan,
        "no seed left the staged manifest record undurable"
    );
    assert!(saw_adopted, "no seed landed the staged manifest record");
}

/// Crash mid-compaction at each of its durability barriers (merged-run
/// sync, manifest sync). Compaction is pure reorganization — every input
/// is already sealed and durable — so recovery must land on exactly the
/// pre-crash logical state, and a retried compaction must converge.
#[test]
fn crash_mid_compaction_preserves_sealed_state() {
    for barrier in 0..2u32 {
        for crash_seed in [5u64, 0xFACE_F00D] {
            let dir = MemDir::new();
            let handle = dir.handle();
            let faulty = FaultyDir::new(dir.clone(), FaultConfig::default());
            let ctl = faulty.control();
            let mut store = LsmStore::open_with_dir(Arc::new(faulty), small_lsm_opts()).unwrap();

            // Three overlapping runs with updates and a tombstone.
            for (round, base) in [(0u8, 0u8), (1, 2), (2, 4)] {
                for i in base..base + 4 {
                    store.put(&[b'k', i], &[round, i]).unwrap();
                }
                if round == 2 {
                    store.delete(&[b'k', 0]).unwrap();
                }
                store.seal().unwrap();
            }
            assert!(store.run_count() >= 3);
            let expected = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();

            // Compaction syncs: #1 merged-run file, #2 manifest record.
            ctl.fail_syncs_after(barrier, 1);
            assert!(
                store.compact_now().is_err(),
                "barrier {barrier}: compaction sync failure must surface"
            );
            drop(store);

            handle.crash(crash_seed);

            let mut store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts())
                .expect("recovery after a mid-compaction crash");
            store.check().unwrap();
            assert_eq!(
                store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
                expected,
                "barrier {barrier} seed {crash_seed}: sealed state changed"
            );
            // Retry converges: one run, same contents. (If the staged
            // manifest record landed, the merge is already installed and
            // the retry is a no-op.)
            let _ = store.compact_now().unwrap();
            assert_eq!(store.run_count(), 1);
            assert_eq!(
                store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
                expected
            );
        }
    }
}

/// Crash mid-**tier**-compaction at each durability barrier (merged-run
/// sync, manifest sync), with a tombstone riding in the merged tier whose
/// live value sits in a deeper run. Beyond what the full-merge crash test
/// covers, recovery must also preserve the tier structure (levels stay
/// non-decreasing, `check` passes) and must never resurrect the deleted
/// key — the merged young tier keeps its tombstone because it is not a
/// bottom merge.
#[test]
fn crash_mid_tier_compaction_preserves_state_and_levels() {
    for barrier in 0..2u32 {
        for crash_seed in [9u64, 0xC0FF_EE42] {
            let dir = MemDir::new();
            let handle = dir.handle();
            let faulty = FaultyDir::new(dir.clone(), FaultConfig::default());
            let ctl = faulty.control();
            let mut store = LsmStore::open_with_dir(Arc::new(faulty), small_lsm_opts()).unwrap();

            // A deep (level-1) run holding a key the young tier deletes.
            store.put(b"old", b"live").unwrap();
            store.put(b"base", b"1").unwrap();
            store.seal().unwrap();
            store.put(b"base2", b"2").unwrap();
            store.seal().unwrap();
            assert!(store.compact_tier_now().unwrap());
            assert_eq!(
                store
                    .run_levels()
                    .iter()
                    .map(|&(_, l)| l)
                    .collect::<Vec<_>>(),
                vec![1]
            );
            store.delete(b"old").unwrap();
            store.put(b"y1", b"3").unwrap();
            store.seal().unwrap();
            store.put(b"y2", b"4").unwrap();
            store.seal().unwrap();
            let expected = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
            assert!(expected.iter().all(|(k, _)| k != b"old"));

            // Tier-merge syncs: #1 merged-run file, #2 manifest record.
            ctl.fail_syncs_after(barrier, 1);
            assert!(
                store.compact_tier_now().is_err(),
                "barrier {barrier}: tier-compaction sync failure must surface"
            );
            drop(store);

            handle.crash(crash_seed);

            let mut store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts())
                .expect("recovery after a mid-tier-compaction crash");
            store.check().unwrap();
            assert_eq!(
                store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
                expected,
                "barrier {barrier} seed {crash_seed}: sealed state changed"
            );
            assert_eq!(
                store.get(b"old").unwrap(),
                None,
                "barrier {barrier} seed {crash_seed}: tier crash resurrected a deleted key"
            );
            // Retried tier merges converge without changing the state.
            while store.compact_tier_now().unwrap() {}
            store.check().unwrap();
            assert_eq!(
                store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
                expected
            );
            assert_eq!(store.get(b"old").unwrap(), None);
            // And the full merge still collapses everything to one run.
            let _ = store.compact_now().unwrap();
            assert_eq!(store.run_count(), 1);
            assert_eq!(
                store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
                expected
            );
        }
    }
}

/// A store seeded with a legacy v1-format run must upgrade to v2 through
/// compaction even when a crash interrupts the upgrade: whichever side of
/// the crash the manifest record lands on, the v1 data stays readable,
/// and a clean retry leaves every live run in v2 format.
#[test]
fn v1_runs_upgrade_to_v2_across_a_crash() {
    for crash_seed in [0u64, 11, 0xBEEF] {
        let dir = MemDir::new();
        let handle = dir.handle();
        let faulty = FaultyDir::new(dir.clone(), FaultConfig::default());
        let ctl = faulty.control();
        let mut store = LsmStore::open_with_dir(Arc::new(faulty), small_lsm_opts()).unwrap();

        store
            .install_v1_run(&[
                (b"legacy-a".to_vec(), Some(b"1".to_vec())),
                (b"legacy-b".to_vec(), Some(b"2".to_vec())),
            ])
            .unwrap();
        store.put(b"fresh", b"3").unwrap();
        store.seal().unwrap();
        assert!(
            store.run_formats().contains(&1),
            "setup must leave a live v1 run"
        );
        let expected = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();

        // Fail the compaction's manifest sync (#2): the merged v2 run is
        // durable, the record committing it is staged but not.
        ctl.fail_syncs_after(1, 1);
        assert!(store.compact_now().is_err());
        drop(store);

        handle.crash(crash_seed);

        let mut store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts())
            .expect("recovery must load v1 and v2 runs alike");
        store.check().unwrap();
        assert_eq!(
            store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
            expected,
            "seed {crash_seed}: upgrade crash changed the logical state"
        );
        assert_eq!(store.get(b"legacy-a").unwrap().unwrap(), b"1");
        // A clean compaction finishes the upgrade: v2 everywhere.
        let _ = store.compact_now().unwrap();
        assert!(
            store.run_formats().iter().all(|&f| f == 2),
            "seed {crash_seed}: v1 run survived the upgrade compaction"
        );
        assert_eq!(
            store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
            expected
        );
    }
}

// ---------------------------------------------------------------------------
// Tiered compaction vs. flat model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TierOp {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Seal,
    /// One tier merge ([`LsmStore::compact_tier_now`]).
    CompactTier,
    /// Tier merges to fixpoint plus the bottom merge
    /// ([`LsmStore::compact_now`]).
    CompactFull,
    /// Sync, power-cut with this seed, reopen.
    Crash(u64),
}

fn tier_op_strategy() -> impl Strategy<Value = TierOp> {
    prop_oneof![
        5 => (key_strategy(), proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(k, v)| TierOp::Put(k, v)),
        2 => key_strategy().prop_map(TierOp::Delete),
        2 => Just(TierOp::Seal),
        2 => Just(TierOp::CompactTier),
        1 => Just(TierOp::CompactFull),
        1 => any::<u64>().prop_map(TierOp::Crash),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of writes, seals, per-tier merges, full merges
    /// and (synced) crashes leaves the tiered store read-equivalent to
    /// the flat `BTreeMap` model — point reads, bloom filters and sparse
    /// indexes included — both with and without a legacy v1-format run
    /// at the bottom of the stack.
    #[test]
    fn tiered_compaction_is_read_equivalent_to_flat_model(
        seed_v1 in any::<bool>(),
        ops in proptest::collection::vec(tier_op_strategy(), 1..48),
    ) {
        let dir = MemDir::new();
        let handle = dir.handle();
        let mut store =
            LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        if seed_v1 {
            let legacy = [
                (b"a".to_vec(), Some(b"v1".to_vec())),
                (b"b".to_vec(), Some(b"v1".to_vec())),
            ];
            store.install_v1_run(&legacy).unwrap();
            for (k, v) in &legacy {
                model.insert(k.clone(), v.clone().unwrap());
            }
            prop_assert!(store.run_formats().contains(&1));
        }
        for op in &ops {
            match op {
                TierOp::Put(k, v) => {
                    store.put(k, v).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                TierOp::Delete(k) => {
                    store.delete(k).unwrap();
                    model.remove(k);
                }
                TierOp::Seal => store.seal().unwrap(),
                TierOp::CompactTier => {
                    let _ = store.compact_tier_now().unwrap();
                }
                TierOp::CompactFull => {
                    let _ = store.compact_now().unwrap();
                }
                TierOp::Crash(seed) => {
                    store.sync().unwrap();
                    drop(store);
                    handle.crash(*seed);
                    store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts())
                        .expect("reopen after synced crash");
                }
            }
            let live = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
            let want: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(&live, &want, "scan diverged after {:?}", op);
            for (k, v) in &want {
                prop_assert_eq!(
                    store.get(k).unwrap().as_ref(),
                    Some(v),
                    "point read diverged after {:?}",
                    op
                );
            }
        }
        store.check().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Seeded chaos schedule
// ---------------------------------------------------------------------------

/// Run a fixed op stream against storage behind a seeded fault schedule
/// (write errors, torn writes, sync failures), then crash and reopen.
/// Failed operations are simply not acked; the recovered state must be a
/// model prefix of the *acked* sequence — injected faults never corrupt,
/// they only shorten. Both stores, one body: the B+Tree faults its WAL
/// device, the LSM faults the whole directory, so the schedule also
/// lands inside budget-triggered auto-seals (whose failures are
/// deferred, never retracting an acked op).
#[test]
fn seeded_fault_schedule_preserves_prefix_consistency() {
    for kind in Kind::BOTH {
        for seed in [1u64, 7, 42, 0x2000_0101] {
            let cfg = FaultConfig {
                seed,
                read_err_per_10k: 0, // reads must stay reliable for replay
                write_err_per_10k: 800,
                short_write_per_10k: 600,
                sync_err_per_10k: 500,
            };
            let (mut rig, ctl) = open_faulty_rig(kind, cfg);
            let registry = MetricsRegistry::new();
            ctl.attach_registry(&registry);

            // Acked operations in order; failures are dropped (not acked).
            let mut acked: Vec<Op> = Vec::new();
            for i in 0..240u32 {
                let k = format!("k{:02}", i % 24).into_bytes();
                if i % 5 == 4 {
                    let _ = rig.engine.sync(); // may fail: no watermark credit
                } else if i % 7 == 6 {
                    if rig.engine.delete(&k).is_ok() {
                        acked.push(Op::Delete(k));
                    }
                } else {
                    let v = format!("v{i}").into_bytes();
                    if rig.engine.put(&k, &v).is_ok() {
                        acked.push(Op::Put(k, v));
                    }
                }
            }
            assert!(
                ctl.injected_total() > 0,
                "{} seed {seed}: schedule never fired — test is vacuous",
                kind.name(),
            );
            let snap = registry.snapshot();
            assert_eq!(
                snap.counter("fault.injected.write_errors")
                    + snap.counter("fault.injected.short_writes")
                    + snap.counter("fault.injected.sync_errors"),
                ctl.injected_total(),
                "obs mirror must agree with the control handle"
            );

            let Rig { engine, site } = rig;
            drop(engine);
            site.crash(seed.wrapping_mul(0x5851_F42D_4C95_7F2D));

            let mut engine = site.reopen();
            engine.check().unwrap();
            let recovered = engine.scan_all();
            assert!(
                matching_prefix(&recovered, &acked, 0).is_some(),
                "{} seed {seed}: recovered state is not a prefix of the acked ops",
                kind.name(),
            );
        }
    }
}

/// LSM compaction chaos: seal/compact cycles under a seeded fault
/// schedule. Reorganization failures only defer the merge — the live
/// view always equals the acked model, a crash recovers a prefix, and a
/// clean retry converges to a single run with nothing lost.
#[test]
fn seeded_compaction_chaos_never_corrupts() {
    for seed in [1u64, 7, 42, 0x2000_0101] {
        let cfg = FaultConfig {
            seed,
            read_err_per_10k: 0,
            write_err_per_10k: 400,
            short_write_per_10k: 300,
            sync_err_per_10k: 400,
        };
        let dir = MemDir::new();
        let handle = dir.handle();
        let faulty = FaultyDir::new(dir.clone(), cfg);
        let ctl = faulty.control();
        let mut store = LsmStore::open_with_dir(Arc::new(faulty), small_lsm_opts()).unwrap();

        let mut acked: Vec<Op> = Vec::new();
        for round in 0..8u32 {
            for i in 0..12u32 {
                let k = format!("k{:02}", (round * 5 + i) % 16).into_bytes();
                let v = format!("v{round}.{i}").into_bytes();
                if store.put(&k, &v).is_ok() {
                    acked.push(Op::Put(k, v));
                }
            }
            // Reorganization under chaos: either may fail, neither may
            // lose or invent data.
            let _ = store.seal();
            let _ = store.compact_now();
        }
        assert!(
            ctl.injected_total() > 0,
            "seed {seed}: schedule never fired — test is vacuous"
        );
        // The live view equals the acked model exactly.
        let live = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(
            matching_prefix(&live, &acked, acked.len()).is_some(),
            "seed {seed}: live view diverged from the acked model"
        );
        drop(store);

        handle.crash(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        let mut store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts())
            .expect("recovery after compaction chaos");
        store.check().unwrap();
        let recovered = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(
            matching_prefix(&recovered, &acked, 0).is_some(),
            "seed {seed}: recovered state is not a prefix of the acked ops"
        );
        // A clean retry converges without changing the logical state.
        store.seal().unwrap();
        let _ = store.compact_now().unwrap();
        assert!(store.run_count() <= 1);
        assert_eq!(
            store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
            recovered,
            "seed {seed}: retried compaction changed the logical state"
        );
    }
}

/// Recovery outcomes surface in `store.recovery.*` once a registry is
/// attached — the observability contract the F3 experiment reads.
#[test]
fn recovery_metrics_report_replay_and_repair() {
    let wal_storage = MemStorage::new();
    let wal_handle = wal_storage.handle();
    let mut kv = KvStore::open_with_storage(
        Box::new(wal_storage),
        Box::new(MemStorage::new()),
        small_opts(),
    )
    .unwrap();
    kv.put(b"a", b"1").unwrap();
    kv.put(b"b", b"2").unwrap();
    kv.wal_mut().sync().unwrap();
    drop(kv);

    // Tear mid-frame: strip the last 3 bytes of the log.
    let bytes = wal_handle.current_bytes();
    let torn = bytes[..bytes.len() - 3].to_vec();
    let mut kv = KvStore::open_with_storage(
        Box::new(MemStorage::from_bytes(torn)),
        Box::new(MemStorage::new()),
        small_opts(),
    )
    .unwrap();
    let registry = MetricsRegistry::new();
    kv.attach_registry(&registry);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("store.recovery.replayed_records"), 1);
    assert_eq!(snap.counter("store.recovery.torn_tails"), 1);
    assert!(snap.counter("store.recovery.repaired_bytes") > 0);
    assert_eq!(kv.stats().recovered_records, 1);
    assert!(kv.stats().recovered_torn_tail);
    assert_eq!(kv.get(b"a").unwrap().unwrap(), b"1");
    assert!(kv.get(b"b").unwrap().is_none(), "torn record dropped");
}
