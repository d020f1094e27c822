//! # memex-store — storage substrate for Memex
//!
//! The Memex paper (§3) manages server state with *two* storage mechanisms:
//!
//! 1. a relational database (Oracle/DB2 in the paper) for **metadata** about
//!    pages, links, users and topics — reproduced here by [`rel`], a compact
//!    typed relational engine with heap tables, B+Tree primary and secondary
//!    indexes and predicate scans;
//! 2. a lightweight Berkeley DB storage manager for **fine-grained
//!    term-level data** — reproduced here by [`lsm`], a WAL-backed
//!    log-structured store (sorted memtable sealed into immutable runs,
//!    tiered compaction, MVCC snapshots) that owns the inverted index.
//!
//! Each tier has exactly one engine. The metadata tier's tables and
//! indexes sit on [`kv`], a buffer-pooled, page-based, WAL-protected
//! B+Tree keyed store with range scans and crash recovery; the term tier
//! runs on [`lsm`], chosen over the B+Tree because it set up faster and
//! peaked lower in memory on every measured benchmark workload.
//!
//! The paper further describes "a loosely-consistent versioning system on
//! top of the RDBMS, with a single producer (crawler) and several consumers
//! (indexer and statistical analyzers)"; that is [`version`].
//!
//! All byte-level encoding used across the store lives in [`codec`].
//!
//! Every byte either mechanism persists flows through the [`vfs`] layer —
//! a small `Storage` trait whose `FaultyStorage` decorator and
//! crash-modelling `MemStorage` make I/O failure a deterministic, seeded,
//! first-class test input (see `tests/fault.rs`).

pub mod btree;
pub mod codec;
pub mod error;
pub mod kv;
pub mod lsm;
pub mod page;
pub mod pager;
pub mod rel;
pub mod version;
pub mod vfs;
pub mod wal;

pub use error::{StoreError, StoreResult};
pub use kv::{KvStore, KvStoreOptions};
pub use lsm::{LsmOptions, LsmSnapshot, LsmStore};
pub use version::{Consumer, Epoch, VersionedLog};
pub use vfs::{
    FaultConfig, FaultControl, FaultyDir, FaultyStorage, FileDir, FileStorage, MemDir,
    MemDirHandle, MemHandle, MemStorage, Storage, StorageDir,
};
