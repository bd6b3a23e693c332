//! Output change sets pause in the application phase and reopen for
//! retraining: a run that trains, applies, is asked to retrain, trains
//! again and applies again makes the decisions, measures the training-wave
//! errors and learns the labels of the run in which output sets were never
//! paused.
//!
//! The reference is that run's recorded trail. [`EXPECTED`] holds, per
//! case, an FNV-1a digest of every diagnostics row — wave, impacts, errors
//! and decisions as bits, training flag — and the number of training rows,
//! as the engine produced them while it still folded every output write in
//! the application phase. A case whose digest moves has changed a decision
//! or a measured error.
//!
//! The `aqhi` digests were recorded by that engine over the workflow whose
//! managed sink `interp` declares the full bound, as the budget rule now
//! gives it (`smartflux_workloads::budget`); every other step's bound is the
//! one it always had.
//!
//! The `lrb/Cancel` digest was re-pinned when the application phase stopped
//! measuring the ι of a Cancel-mode step whose rule runs it at every ι
//! (`update-positions`, in both application phases): it is that run's
//! digest with the step's ι replaced by NaN on its application rows. Its
//! input change sets paused in the first application phase and reopened
//! for retraining, so the retraining phase's ι and labels are the ones a
//! never-paused run measures.

use smartflux::eval::WorkloadFactory;
use smartflux::{AccumulationMode, EngineConfig, ImpactCombiner, QodSpec, SmartFluxSession};
use smartflux_datastore::DataStore;
use smartflux_workloads::aqhi::AqhiFactory;
use smartflux_workloads::lrb::LrbFactory;

/// Training waves of the first phase, application waves after it, the
/// retraining phase's length, and application waves after that.
const TRAINING: usize = 60;
const APPLICATION: u64 = 40;
const RETRAINING: usize = 40;
const AFTER: u64 = 30;

/// `(case, digest, training rows)` of the never-paused run.
const EXPECTED: [(&str, u64, usize); 4] = [
    ("lrb/Cancel", 0x1d64ebb16fb3be74, 100),
    ("lrb/Accumulate", 0xdcc84bc82297a837, 100),
    ("aqhi/Cancel", 0xad5cc4c263a05a71, 100),
    ("aqhi/Accumulate", 0x7550dd92d363dbc2, 100),
];

fn fnv(digest: &mut u64, bytes: &[u8]) {
    for byte in bytes {
        *digest ^= u64::from(*byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The run's digest and training-row count.
fn trail(factory: &dyn WorkloadFactory, spec: QodSpec) -> (u64, usize) {
    let store = DataStore::new();
    let workflow = factory.build(&store);
    let config = EngineConfig::new()
        .with_training_waves(TRAINING)
        .with_quality_gates(0.0, 0.0)
        .with_default_spec(spec)
        .with_seed(11);
    let mut session = SmartFluxSession::new(workflow, store, config).unwrap();
    session.run_waves(TRAINING as u64 + APPLICATION).unwrap();
    session.request_training(RETRAINING);
    session.run_waves(RETRAINING as u64 + AFTER).unwrap();
    session.engine().with(|e| {
        let mut digest = 0xCBF2_9CE4_8422_2325;
        let mut training = 0;
        for row in e.diagnostics().since(0) {
            fnv(&mut digest, &row.wave.to_le_bytes());
            for x in row.impacts.iter().chain(row.errors()) {
                fnv(&mut digest, &x.to_bits().to_le_bytes());
            }
            for &decision in &row.decisions {
                fnv(&mut digest, &[u8::from(decision)]);
            }
            fnv(&mut digest, &[u8::from(row.training)]);
            training += usize::from(row.training);
        }
        (digest, training)
    })
}

#[test]
fn retraining_after_paused_outputs_matches_the_never_paused_trail() {
    let mut got = Vec::new();
    for (name, factory, combiner) in [
        (
            "lrb",
            &LrbFactory::default() as &dyn WorkloadFactory,
            ImpactCombiner::default(),
        ),
        ("aqhi", &AqhiFactory::default(), ImpactCombiner::Max),
    ] {
        for mode in [AccumulationMode::Cancel, AccumulationMode::Accumulate] {
            let spec = QodSpec::new().with_mode(mode).with_combiner(combiner);
            let (digest, training) = trail(factory, spec);
            got.push((format!("{name}/{mode:?}"), digest, training));
        }
    }
    for ((name, digest, training), (want_name, want_digest, want_training)) in
        got.iter().zip(EXPECTED)
    {
        assert_eq!(name, want_name);
        // Both training phases, and no wave left out of them.
        assert_eq!(*training, TRAINING + RETRAINING, "{name}");
        assert_eq!(
            (*digest, *training),
            (want_digest, want_training),
            "{name}: {digest:#018x}"
        );
    }
}
