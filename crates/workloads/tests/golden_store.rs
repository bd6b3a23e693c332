//! Golden store contents: every workload, run for a fixed number of
//! synchronous waves, leaves exactly the cells, timestamps and clock it
//! always has.
//!
//! The hash covers every `(table, family, row, qualifier, timestamp, value
//! bits)` of the final store in key order, plus the logical clock, so a
//! step that writes the same values in another order, under other
//! timestamps or with one tick more or less changes it. Each pinned value
//! was computed by the per-cell writes the steps made before they wrote
//! each family once per execution (`FamilyHandle::put_many`); the batched
//! steps must reproduce them bit for bit.

use smartflux::eval::WorkloadFactory;
use smartflux_datastore::{DataStore, Value};
use smartflux_wms::{Scheduler, SynchronousPolicy};
use smartflux_workloads::aqhi::AqhiFactory;
use smartflux_workloads::fire::FireFactory;
use smartflux_workloads::lrb::LrbFactory;
use smartflux_workloads::pagerank::PagerankFactory;

/// Waves each workload runs before its store is hashed.
const WAVES: u64 = 24;

/// FNV-1a, 64 bits: stable across platforms and releases, unlike
/// `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed field, so adjacent fields cannot run together.
    fn field(&mut self, bytes: &[u8]) {
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes);
    }
}

/// The hash of the store's full contents and clock.
fn store_hash(store: &DataStore) -> u64 {
    let state = store.export_state();
    let mut h = Fnv::new();
    h.bytes(&state.clock.to_le_bytes());
    for table in &state.tables {
        h.field(table.name.as_bytes());
        for family in &table.families {
            h.field(family.name.as_bytes());
            for cell in &family.cells {
                let [(ts, value)] = &cell.versions;
                h.field(cell.row.as_bytes());
                h.field(cell.qualifier.as_bytes());
                h.bytes(&ts.to_le_bytes());
                match value {
                    Value::F64(v) => {
                        h.bytes(&[0]);
                        h.bytes(&v.to_bits().to_le_bytes());
                    }
                    Value::I64(v) => {
                        h.bytes(&[1]);
                        h.bytes(&v.to_le_bytes());
                    }
                    Value::Text(s) => {
                        h.bytes(&[2]);
                        h.field(s.as_bytes());
                    }
                    Value::Bytes(b) => {
                        h.bytes(&[3]);
                        h.field(b);
                    }
                }
            }
        }
    }
    assert_eq!(state.clock, store.clock());
    h.0
}

/// Runs `factory`'s workflow for [`WAVES`] synchronous waves and hashes
/// the store it leaves.
fn golden(factory: &dyn WorkloadFactory) -> u64 {
    let store = DataStore::new();
    let workflow = factory.build(&store);
    let mut scheduler = Scheduler::new(workflow, store.clone(), Box::new(SynchronousPolicy));
    scheduler.run_waves(WAVES).expect("synchronous waves run");
    store_hash(&store)
}

/// Asserts the hash, printing the one found so a deliberate change to a
/// workload's writes can re-pin it.
fn check(name: &str, factory: &dyn WorkloadFactory, pinned: u64) {
    let found = golden(factory);
    assert_eq!(
        found, pinned,
        "{name}: store hash {found:#018x}, pinned {pinned:#018x}"
    );
}

#[test]
fn lrb_store_is_golden() {
    check("lrb", &LrbFactory::with_bound(0.1), 0xdb3c_2897_8d68_0b04);
}

#[test]
fn aqhi_store_is_golden() {
    check("aqhi", &AqhiFactory::with_bound(0.1), 0x0026_ab03_40be_c35f);
}

#[test]
fn pagerank_store_is_golden() {
    check(
        "pagerank",
        &PagerankFactory::with_bound(0.1),
        0x4137_f4ec_9277_bbf1,
    );
}

#[test]
fn pagerank_wide_store_is_golden() {
    // The end-to-end benchmark's `pagerank_wide`: 1 000 pages, batch 25.
    let mut wide = PagerankFactory::with_bound(0.1);
    wide.config.pages = 1000;
    wide.config.crawl_batch = 25;
    check("pagerank_wide", &wide, 0x76ea_b08f_f9c0_7f0b);
}

#[test]
fn fire_store_is_golden() {
    check("fire", &FireFactory::with_bound(0.1), 0x91a1_60ae_724d_3d0b);
}
