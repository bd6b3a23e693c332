//! Data-container addressing.

use std::fmt;

/// A reference to a *data container*: the unit of storage a processing step
/// reads from or writes to, and to which Quality-of-Data bounds attach.
///
/// A container is either a whole column family (`table/family`) or a single
/// qualifier column within it (`table/family:qualifier`), mirroring the
/// paper's "table, column, row, or group of any of these" addressing.
///
/// # Example
///
/// ```
/// use smartflux_datastore::ContainerRef;
///
/// let fam = ContainerRef::family("lrb", "segments");
/// let col = ContainerRef::column("lrb", "segments", "avg_speed");
/// assert!(fam.contains(&col));
/// assert!(!col.contains(&fam));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerRef {
    table: String,
    family: String,
    qualifier: Option<String>,
}

impl ContainerRef {
    /// References a whole column family.
    #[must_use]
    pub fn family(table: impl Into<String>, family: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            family: family.into(),
            qualifier: None,
        }
    }

    /// References a single qualifier column within a family.
    #[must_use]
    pub fn column(
        table: impl Into<String>,
        family: impl Into<String>,
        qualifier: impl Into<String>,
    ) -> Self {
        Self {
            table: table.into(),
            family: family.into(),
            qualifier: Some(qualifier.into()),
        }
    }

    /// The table name.
    #[must_use]
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The column-family name.
    #[must_use]
    pub fn family_name(&self) -> &str {
        &self.family
    }

    /// The qualifier, if this reference names a single column.
    #[must_use]
    pub fn qualifier(&self) -> Option<&str> {
        self.qualifier.as_deref()
    }

    /// Returns `true` if `other` addresses storage inside this container.
    ///
    /// A family-level reference contains every column reference in the same
    /// family; every reference contains itself.
    #[must_use]
    pub fn contains(&self, other: &ContainerRef) -> bool {
        if self.table != other.table || self.family != other.family {
            return false;
        }
        match (&self.qualifier, &other.qualifier) {
            (None, _) => true,
            (Some(a), Some(b)) => a == b,
            (Some(_), None) => false,
        }
    }
}

impl fmt::Display for ContainerRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{}/{}:{}", self.table, self.family, q),
            None => write!(f, "{}/{}", self.table, self.family),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_rules() {
        let fam = ContainerRef::family("t", "f");
        let col = ContainerRef::column("t", "f", "q");
        let other_col = ContainerRef::column("t", "f", "q2");
        let other_fam = ContainerRef::family("t", "g");

        assert!(fam.contains(&fam));
        assert!(fam.contains(&col));
        assert!(col.contains(&col));
        assert!(!col.contains(&fam));
        assert!(!col.contains(&other_col));
        assert!(!other_fam.contains(&col));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ContainerRef::family("t", "f").to_string(), "t/f");
        assert_eq!(ContainerRef::column("t", "f", "q").to_string(), "t/f:q");
    }
}
