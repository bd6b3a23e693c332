//! The decision trails of the steps whose bound the budget rule leaves as
//! it was.
//!
//! A managed step with a managed descendant spends a fraction of the
//! workflow bound, and every managed sink keeps the full bound. The steps
//! named here had those bounds before the rule decided them, so the rule
//! must not move one of their decisions, measured errors or impacts. Each
//! [`EXPECTED`] digest was recorded from the workflows whose bound
//! fractions were written out at every step, before the rule replaced
//! them.
//!
//! A digest is FNV-1a over every diagnostics row of one step: the wave,
//! the training flag, the step's impact, its measured error on training
//! waves, and its decision.
//!
//! Eight digests were re-pinned when the application phase stopped
//! measuring the ι of a Cancel-mode step whose rule runs it at every ι
//! (`lrb` `update-positions` and `car-count`, `pagerank_wide`
//! `link-histogram` and `pagerank`, at both seeds): each is the digest of
//! the recorded trail with that step's ι replaced by NaN on its
//! application rows, computed from the same run as the old digest.

use smartflux::eval::WorkloadFactory;
use smartflux::{EngineConfig, ImpactCombiner, QodSpec, SmartFluxSession};
use smartflux_datastore::DataStore;
use smartflux_workloads::aqhi::AqhiFactory;
use smartflux_workloads::lrb::{self, LrbFactory};
use smartflux_workloads::pagerank::PagerankFactory;

/// Training waves, then application waves.
const TRAINING: usize = 60;
const APPLICATION: u64 = 40;

/// Engine and feed seeds each workload runs at.
const SEEDS: [u64; 2] = [17, 29];

/// `(workload/step@seed, digest)` of the trails recorded before the rule.
const EXPECTED: [(&str, u64); 26] = [
    ("lrb/update-positions@17", 0x081adbf2d58bf899),
    ("lrb/avg-speed@17", 0x70b20d7825acbe6f),
    ("lrb/car-count@17", 0x8242797d284a9ffe),
    ("lrb/detect-accidents@17", 0xfac6dad87e64cc33),
    ("lrb/congestion@17", 0x806e1841083fb181),
    ("lrb/classify@17", 0xd6e70d36c2fa3ae1),
    ("aqhi/concentration@17", 0xab99e40376988953),
    ("aqhi/zones@17", 0x191c568498409690),
    ("aqhi/hotspots@17", 0x86a562ce29ed2c93),
    ("aqhi/index@17", 0xc8a03da03e7a1134),
    ("pagerank_wide/link-histogram@17", 0x618348908681cea2),
    ("pagerank_wide/pagerank@17", 0x05388a5e514bc4a7),
    ("pagerank_wide/ranking@17", 0x98b5e32e84b02a6b),
    ("lrb/update-positions@29", 0x680aca22190ee53b),
    ("lrb/avg-speed@29", 0xd6f8490f8557d39d),
    ("lrb/car-count@29", 0xd569f8dd0a7a2974),
    ("lrb/detect-accidents@29", 0xab1a72dfd03d380e),
    ("lrb/congestion@29", 0x523ca6f4cbc54172),
    ("lrb/classify@29", 0x8d63ede1ab4e3ab2),
    ("aqhi/concentration@29", 0x5fced9ad41e7ff10),
    ("aqhi/zones@29", 0x77a0c3368026ae94),
    ("aqhi/hotspots@29", 0x8f98a4550fd20a90),
    ("aqhi/index@29", 0x44fb4f06b8a7cba2),
    ("pagerank_wide/link-histogram@29", 0xe392453194559d6b),
    ("pagerank_wide/pagerank@29", 0xf2914f5a460cc291),
    ("pagerank_wide/ranking@29", 0x1ee7bf85fcfe7e89),
];

fn fnv(digest: &mut u64, bytes: &[u8]) {
    for byte in bytes {
        *digest ^= u64::from(*byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One workload as the trail test runs it: its factory at `seed`, the
/// engine settings its figures use, and the steps whose trails are pinned.
struct Case {
    name: &'static str,
    factory: Box<dyn WorkloadFactory>,
    config: EngineConfig,
    steps: &'static [&'static str],
}

fn cases(seed: u64) -> Vec<Case> {
    let config = EngineConfig::new()
        .with_training_waves(TRAINING)
        .with_quality_gates(0.0, 0.0)
        .with_seed(seed);
    let mut lrb = LrbFactory::with_bound(0.05);
    lrb.config.seed = seed;
    let mut aqhi = AqhiFactory::with_bound(0.05);
    aqhi.config.seed = seed;
    let mut wide = PagerankFactory::with_bound(0.05);
    wide.config.pages = 1000;
    wide.config.crawl_batch = 25;
    wide.config.seed = seed;
    vec![
        Case {
            name: "lrb",
            factory: Box::new(lrb),
            config: config
                .clone()
                .with_step_spec("classify", lrb::classify_qod_spec()),
            steps: &[
                "update-positions",
                "avg-speed",
                "car-count",
                "detect-accidents",
                "congestion",
                "classify",
            ],
        },
        Case {
            name: "aqhi",
            factory: Box::new(aqhi),
            config: config
                .clone()
                .with_default_spec(QodSpec::default().with_combiner(ImpactCombiner::Max)),
            steps: &["concentration", "zones", "hotspots", "index"],
        },
        Case {
            name: "pagerank_wide",
            factory: Box::new(wide),
            config,
            steps: &["link-histogram", "pagerank", "ranking"],
        },
    ]
}

/// Per pinned step, `(workload/step@seed, digest)`.
fn trails(case: Case, seed: u64) -> Vec<(String, u64)> {
    let store = DataStore::new();
    let workflow = case.factory.build(&store);
    let mut session = SmartFluxSession::new(workflow, store, case.config).unwrap();
    session.run_waves(TRAINING as u64 + APPLICATION).unwrap();
    session.engine().with(|e| {
        let names = e.qod_step_names();
        assert!(
            e.diagnostics().since(0).any(|row| !row.training),
            "{} at seed {seed} never reached the application phase",
            case.name
        );
        case.steps
            .iter()
            .map(|step| {
                let idx = names.iter().position(|n| n == step).unwrap();
                let mut digest = 0xCBF2_9CE4_8422_2325;
                for row in e.diagnostics().since(0) {
                    fnv(&mut digest, &row.wave.to_le_bytes());
                    fnv(&mut digest, &[u8::from(row.training)]);
                    fnv(&mut digest, &row.impacts[idx].to_bits().to_le_bytes());
                    if let Some(error) = row.errors().get(idx) {
                        fnv(&mut digest, &error.to_bits().to_le_bytes());
                    }
                    fnv(&mut digest, &[u8::from(row.decisions[idx])]);
                }
                (format!("{}/{step}@{seed}", case.name), digest)
            })
            .collect()
    })
}

#[test]
fn steps_whose_bound_did_not_move_keep_their_decision_trails() {
    let got: Vec<(String, u64)> = SEEDS
        .into_iter()
        .flat_map(|seed| cases(seed).into_iter().flat_map(move |c| trails(c, seed)))
        .collect();
    let printed: Vec<String> = got
        .iter()
        .map(|(name, digest)| format!("(\"{name}\", {digest:#018x}),"))
        .collect();
    assert_eq!(got.len(), EXPECTED.len(), "{}", printed.join("\n"));
    for ((name, digest), (want_name, want)) in got.iter().zip(EXPECTED) {
        assert_eq!(name, want_name);
        assert_eq!(*digest, want, "{name}: {digest:#018x}");
    }
}
