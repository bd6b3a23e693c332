//! The processing-step abstraction.

use std::error::Error;
use std::fmt;

use smartflux_datastore::{DataStore, FamilyHandle, StoreError, StoreView, Value};

use crate::graph::StepId;

/// An error raised by a step implementation.
///
/// Wraps either a data-store error or an application-level message.
#[derive(Debug)]
pub struct StepError {
    message: String,
    source: Option<Box<dyn Error + Send + Sync + 'static>>,
}

impl StepError {
    /// Creates an error from a plain message.
    #[must_use]
    pub fn msg(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            source: None,
        }
    }

    /// Creates an error wrapping an underlying cause.
    #[must_use]
    pub fn with_source(
        message: impl Into<String>,
        source: impl Error + Send + Sync + 'static,
    ) -> Self {
        Self {
            message: message.into(),
            source: Some(Box::new(source)),
        }
    }
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for StepError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.source.as_deref().map(|e| e as &(dyn Error + 'static))
    }
}

impl From<StoreError> for StepError {
    fn from(e: StoreError) -> Self {
        StepError::with_source("data store operation failed", e)
    }
}

/// The environment handed to a step when it executes: data-store access plus
/// wave metadata.
///
/// All storage access goes through this context so that the store's write
/// path (SmartFlux monitoring) sees every mutation the step performs. The
/// context borrows the store and the step's name from whoever runs the
/// step, so building one per attempt asks the heap for nothing.
#[derive(Debug)]
pub struct StepContext<'a> {
    store: &'a DataStore,
    wave: u64,
    step: StepId,
    step_name: &'a str,
}

impl<'a> StepContext<'a> {
    /// Creates a context for one step execution.
    #[must_use]
    pub fn new(store: &'a DataStore, wave: u64, step: StepId, step_name: &'a str) -> Self {
        Self {
            store,
            wave,
            step,
            step_name,
        }
    }

    /// The wave (iteration) number being processed, starting at 1.
    #[must_use]
    pub fn wave(&self) -> u64 {
        self.wave
    }

    /// The id of the executing step.
    #[must_use]
    pub fn step_id(&self) -> StepId {
        self.step
    }

    /// The name of the executing step.
    #[must_use]
    pub fn step_name(&self) -> &'a str {
        self.step_name
    }

    /// Runs `f` over the store under one read guard — the step's reads, in
    /// place, before it writes; see [`DataStore::read`]. `f` must make no
    /// store call: it runs under the guard.
    pub fn read<R>(&self, f: impl FnOnce(&StoreView<'_>) -> R) -> R {
        self.store.read(f)
    }

    /// Resolves a family once, for a step that writes many of its cells:
    /// the handle's calls are this context's without the per-call name
    /// lookup, and monitoring sees the same mutations. See
    /// [`DataStore::family`].
    ///
    /// # Errors
    ///
    /// Fails if the table or family does not exist.
    pub fn family<'h>(
        &'h self,
        table: &'h str,
        family: &'h str,
    ) -> Result<FamilyHandle<'h>, StepError> {
        Ok(self.store.family(table, family)?)
    }

    /// Writes a value.
    ///
    /// # Errors
    ///
    /// Fails if the table or family does not exist.
    pub fn put(
        &self,
        table: &str,
        family: &str,
        row: &str,
        qualifier: &str,
        value: Value,
    ) -> Result<Option<Value>, StepError> {
        Ok(self.store.put(table, family, row, qualifier, value)?)
    }

    /// Reads a value.
    ///
    /// # Errors
    ///
    /// Fails if the table or family does not exist.
    pub fn get(
        &self,
        table: &str,
        family: &str,
        row: &str,
        qualifier: &str,
    ) -> Result<Option<Value>, StepError> {
        Ok(self.store.get(table, family, row, qualifier)?)
    }

    /// Reads a numeric value, defaulting to `default` when absent or
    /// non-numeric.
    ///
    /// # Errors
    ///
    /// Fails if the table or family does not exist.
    pub fn get_f64(
        &self,
        table: &str,
        family: &str,
        row: &str,
        qualifier: &str,
        default: f64,
    ) -> Result<f64, StepError> {
        Ok(self
            .get(table, family, row, qualifier)?
            .and_then(|v| v.as_f64())
            .unwrap_or(default))
    }
}

/// A workflow processing step.
///
/// Steps must be deterministic functions of the container state they read;
/// all communication with other steps goes through the data store. This is
/// the contract that lets SmartFlux skip executions: the latest emitted
/// output simply remains current.
pub trait Step: Send + Sync {
    /// Executes the step for the context's wave.
    ///
    /// # Errors
    ///
    /// Implementations should return an error rather than panic; the
    /// scheduler wraps it with step and wave information.
    fn execute(&self, ctx: &StepContext) -> Result<(), StepError>;
}

/// Adapts a closure into a [`Step`].
///
/// # Example
///
/// ```
/// use smartflux_wms::{FnStep, Step, StepContext};
/// use smartflux_datastore::{DataStore, Value};
///
/// let step = FnStep::new(|ctx: &StepContext| {
///     ctx.put("t", "f", "r", "q", Value::from(ctx.wave() as f64))?;
///     Ok(())
/// });
/// # let store = DataStore::new();
/// # store.create_table("t").unwrap();
/// # store.create_family("t", "f").unwrap();
/// # use smartflux_wms::StepId;
/// # let ctx = StepContext::new(&store, 1, smartflux_wms::GraphBuilder::new("g").add_step("s"), "s");
/// # step.execute(&ctx).unwrap();
/// ```
pub struct FnStep<F>(F);

impl<F> FnStep<F>
where
    F: Fn(&StepContext) -> Result<(), StepError> + Send + Sync,
{
    /// Wraps the closure.
    #[must_use]
    pub fn new(f: F) -> Self {
        Self(f)
    }
}

impl<F> Step for FnStep<F>
where
    F: Fn(&StepContext) -> Result<(), StepError> + Send + Sync,
{
    fn execute(&self, ctx: &StepContext) -> Result<(), StepError> {
        (self.0)(ctx)
    }
}

impl<F> fmt::Debug for FnStep<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FnStep(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn store() -> DataStore {
        let store = DataStore::new();
        store.create_table("t").unwrap();
        store.create_family("t", "f").unwrap();
        store
    }

    fn ctx(store: &DataStore) -> StepContext<'_> {
        let mut b = GraphBuilder::new("g");
        let id = b.add_step("s");
        StepContext::new(store, 7, id, "s")
    }

    #[test]
    fn context_exposes_metadata() {
        let store = store();
        let c = ctx(&store);
        assert_eq!(c.wave(), 7);
        assert_eq!(c.step_name(), "s");
    }

    #[test]
    fn context_put_get_roundtrip() {
        let store = store();
        let c = ctx(&store);
        c.put("t", "f", "r", "q", Value::from(2.5)).unwrap();
        assert_eq!(c.get_f64("t", "f", "r", "q", 0.0).unwrap(), 2.5);
        assert_eq!(c.get_f64("t", "f", "r", "missing", -1.0).unwrap(), -1.0);
    }

    #[test]
    fn family_handle_and_read_scope_reach_the_store() {
        let store = store();
        let c = ctx(&store);
        let f = c.family("t", "f").unwrap();
        f.put("r", "q", Value::from(2.5)).unwrap();
        assert_eq!(c.get_f64("t", "f", "r", "q", 0.0).unwrap(), 2.5);
        let read = c.read(|r| r.family("t", "f").map(|f| f.get_f64("r", "q")));
        assert_eq!(read.unwrap(), Some(2.5));
        let err = c.family("t", "missing").unwrap_err();
        assert!(err.source().is_some());
        assert!(c.read(|r| r.family("t", "missing").is_err()));
    }

    #[test]
    fn fn_step_executes_closure() {
        let store = store();
        let c = ctx(&store);
        let step = FnStep::new(|ctx: &StepContext| {
            ctx.put("t", "f", "r", "q", Value::from(1.0))?;
            Ok(())
        });
        step.execute(&c).unwrap();
        assert!(c.get("t", "f", "r", "q").unwrap().is_some());
    }

    #[test]
    fn step_error_from_store_error() {
        let store = store();
        let c = ctx(&store);
        let err = c.get("missing", "f", "r", "q").unwrap_err();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("data store"));
    }
}
