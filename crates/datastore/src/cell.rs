//! Write timestamps.
//!
//! A cell — one `(row, qualifier)` slot of a [`Row`] — is its current
//! `(Timestamp, Value)` pair and nothing else: an overwrite replaces the
//! pair and hands the displaced value to the write's [`WriteRef`].
//!
//! [`Row`]: crate::Row
//! [`WriteRef`]: crate::WriteRef

/// A logical timestamp assigned by the store to every write.
///
/// Timestamps are monotonically increasing per [`DataStore`] and have no
/// wall-clock meaning; SmartFlux maps them to workflow waves.
///
/// [`DataStore`]: crate::DataStore
pub type Timestamp = u64;
