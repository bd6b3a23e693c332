//! Durability for the SmartFlux reproduction: periodic checkpoints of the
//! store and the engine, and the recovery that resumes from them.
//!
//! The paper runs SmartFlux on HBase, whose WAL + memstore-flush design
//! makes every container write durable. Our [`DataStore`] is purely
//! in-memory, so this crate supplies the missing half: a crash at wave
//! 10,000 of a Linear-Road run must not lose the containers, the trained
//! Random Forest, or the monitor's impact state.
//!
//! # Architecture
//!
//! - Every [`DurabilityOptions::checkpoint_interval`] waves,
//!   [`Checkpointer::maybe_checkpoint`] writes a [`Checkpoint`] — the full
//!   store state plus opaque engine bytes — via an atomic
//!   temp-file-and-rename, and tracks how many waves the newest durable
//!   checkpoint lags.
//! - [`read_checkpoint`] reads it back. Damage of any kind is a typed
//!   [`DurabilityError`]; reading never panics on corrupt input.
//!
//! A durable engine session (`QodEngine` in the `smartflux` crate) logs no
//! store mutation: `QodEngine::recover` restores the checkpoint, and the
//! waves after it re-execute deterministically.
//!
//! The store-level write-ahead log that predates this design
//! (`DurabilityManager`, `SyncPolicy`, `recover_store`) is deprecated and
//! kept, fenced off in one module, only for the frozen benchmark
//! (`benchmark/`).
//!
//! # Example
//!
//! ```
//! use smartflux_datastore::{DataStore, Value};
//! use smartflux_durability::{read_checkpoint, Checkpointer, DurabilityOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("sf-dur-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let checkpointer = Checkpointer::open(DurabilityOptions::new(&dir).with_checkpoint_interval(2))?;
//!
//! let store = DataStore::new();
//! store.create_table("t")?;
//! store.create_family("t", "f")?;
//! for wave in 1..=3 {
//!     store.put("t", "f", "row", "col", Value::from(wave as f64))?;
//!     // Wave 2 is on the interval: the engine's bytes are asked for then.
//!     checkpointer.maybe_checkpoint(wave, &store, || b"engine".to_vec())?;
//! }
//!
//! let checkpoint = read_checkpoint(&dir)?.expect("wave 2 wrote one");
//! assert_eq!(checkpoint.wave, 2);
//! assert_eq!(checkpoint.engine, b"engine");
//! assert_eq!(checkpointer.checkpoint_lag_waves(3), 1);
//! let restored = DataStore::from_state(checkpoint.store)?;
//! assert_eq!(restored.get("t", "f", "row", "col")?, Some(Value::from(2.0)));
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
mod frozen;
mod options;

pub use checkpoint::{
    decode_store_state, encode_store_state, read_checkpoint, write_checkpoint, Checkpoint,
    Checkpointer, CHECKPOINT_FILE,
};
pub use crc::crc32;
pub use error::DurabilityError;
pub use options::DurabilityOptions;
// The deprecated WAL surface the benchmark still spells. A glob, so this
// line names no deprecated item; each user of one gets the warning.
pub use frozen::*;
