//! Durability for the SmartFlux reproduction: write-ahead logging,
//! checkpoints with log compaction, and crash recovery.
//!
//! The paper runs SmartFlux on HBase, whose WAL + memstore-flush design
//! makes every container write durable. Our [`DataStore`] is purely
//! in-memory, so this crate supplies the missing half: a crash at wave
//! 10,000 of a Linear-Road run must not lose the containers, the trained
//! Random Forest, or the monitor's impact state.
//!
//! # Architecture
//!
//! - [`DurabilityManager::attach`] hooks the store's write-observer
//!   surface and buffers every mutation; [`DurabilityManager::commit_wave`]
//!   group-commits them as one CRC-framed record in the append-only WAL
//!   ([`Wal`]), flushing per the configured [`SyncPolicy`]. This is a
//!   store-level API: an engine session does not attach it.
//! - Every [`DurabilityOptions::checkpoint_interval`] waves,
//!   [`DurabilityManager::maybe_checkpoint`] writes a [`Checkpoint`] — the
//!   full store state plus opaque engine bytes — via an atomic
//!   temp-file-and-rename, then compacts the WAL prefix it supersedes by
//!   copying the byte ranges of the frames it keeps (the log indexes its
//!   frames; nothing is decoded).
//! - [`recover_store`] rebuilds a store from checkpoint + WAL tail,
//!   tolerating a torn final record (the signature of a crash
//!   mid-append). Everything else that is malformed yields a typed
//!   [`DurabilityError`]; recovery never panics on corrupt input.
//!
//! Engine-level durability (`QodEngine` in the `smartflux` crate) uses
//! the checkpoints only: a session logs no store mutation, and
//! `QodEngine::recover` restores the checkpoint, because the waves after
//! it re-execute deterministically.
//!
//! # Example
//!
//! ```
//! use smartflux_datastore::{DataStore, Value};
//! use smartflux_durability::{recover_store, DurabilityManager, DurabilityOptions, SyncPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("sf-dur-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let manager = DurabilityManager::open(
//!     DurabilityOptions::new(&dir).with_sync(SyncPolicy::Never),
//! )?;
//!
//! let store = DataStore::new();
//! store.create_table("t")?;
//! store.create_family("t", "f")?;
//! let _observer = manager.attach(&store);
//!
//! store.put("t", "f", "row", "col", Value::from(42.0))?;
//! manager.commit_wave(1, store.clock())?; // group-commit at the wave boundary
//!
//! let recovered = recover_store(&dir)?;
//! assert_eq!(
//!     recovered.store.get("t", "f", "row", "col")?,
//!     Some(Value::from(42.0)),
//! );
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```
//!
//! [`DataStore`]: smartflux_datastore::DataStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

mod checkpoint;
mod crc;
mod error;
mod manager;
mod options;
mod recover;
mod wal;

pub use checkpoint::{
    decode_store_state, encode_store_state, read_checkpoint, write_checkpoint, Checkpoint,
    CHECKPOINT_FILE,
};
pub use crc::crc32;
pub use error::DurabilityError;
pub use manager::{DurabilityManager, WAL_FILE};
pub use options::{DurabilityOptions, SyncPolicy};
pub use recover::{recover_store, RecoveredStore};
pub use wal::{read_wal, read_wal_bytes, AppendOutcome, Wal, WalBatch, WalOp, WalReadResult};
