//! The PageRank/web-crawl workload — the first application class of §2.3.
//!
//! "Processes the content of crawled documents and builds an histogram with
//! the differences against previous states of links. It is only worthy to
//! process the new crawled documents if the differences in the link counts
//! is sufficient to significantly change the page rank of documents."
//!
//! A synthetic evolving web: page popularity follows slow periodic cycles,
//! the crawler refreshes a rotating subset of pages each wave, link
//! structure drifts with popularity, and the workflow recomputes link
//! histograms, word counts, PageRank scores and the top-k ranking — the
//! outputs §2.3 names (word counts, page ranking, reverse links).

use std::sync::Arc;

use smartflux::eval::WorkloadFactory;
use smartflux_datastore::{ContainerRef, DataStore, FamilyView, StoreError, Value};
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

use crate::budget::{budget_upstream, UPSTREAM_FRACTION};
use crate::gen::{diurnal, periodic_noise, unit_hash};

/// Table name used by this workload.
pub const TABLE: &str = "web";
/// The popularity/link cycle length in waves (one crawl "week").
pub const CYCLE_WAVES: u64 = 168;

/// Configuration of the PageRank workload.
#[derive(Debug, Clone)]
pub struct PagerankConfig {
    /// Number of pages in the synthetic web.
    pub pages: usize,
    /// Outlinks per page.
    pub links_per_page: usize,
    /// Pages the crawler refreshes per wave.
    pub crawl_batch: usize,
    /// Power-iteration rounds per PageRank execution.
    pub iterations: usize,
    /// PageRank damping factor.
    pub damping: f64,
    /// Size of the published top-k ranking.
    pub top_k: usize,
    /// The workflow's error bound: every managed sink's `maxε`, split
    /// upstream by [`budget_upstream`].
    pub bound: f64,
    /// Feed seed.
    pub seed: u64,
}

impl Default for PagerankConfig {
    fn default() -> Self {
        Self {
            pages: 120,
            links_per_page: 6,
            crawl_batch: 30,
            iterations: 15,
            damping: 0.85,
            top_k: 10,
            bound: 0.10,
            seed: 23,
        }
    }
}

impl PagerankConfig {
    /// A configuration with the given workflow error bound.
    #[must_use]
    pub fn with_bound(bound: f64) -> Self {
        Self {
            bound,
            ..Self::default()
        }
    }
}

/// Popularity of a page at a wave, in `[0, 1]`: a slow periodic cycle plus
/// a fixed per-page base, busier during "waking hours" so quiet periods
/// produce few link changes (the correlated-regime premise of §2.3).
#[must_use]
pub fn popularity(seed: u64, page: usize, wave: u64) -> f64 {
    let base = unit_hash(seed ^ 0x70, page as u64, 0);
    let trend = periodic_noise(seed ^ 0x71, page as u64, wave, 24, CYCLE_WAVES);
    let activity = 0.15 + 0.85 * diurnal(wave, (page % 7) as f64);
    (0.3 * base + 0.7 * trend * activity).clamp(0.0, 1.0)
}

/// The `i`-th outlink of a page at a wave: preferential attachment toward
/// currently-popular pages, re-rolled only when the link's slot phase
/// matches (links churn slowly).
#[must_use]
pub fn outlink(cfg: &PagerankConfig, page: usize, slot: usize, wave: u64) -> usize {
    // Each slot refreshes on its own 12-wave sub-cycle so per-wave churn is
    // a fraction of the adjacency.
    let epoch = (wave + (slot as u64 * 12) / cfg.links_per_page as u64) / 12;
    // Sample candidates and keep the most popular — preferential
    // attachment without global state.
    let mut best = 0;
    let mut best_score = -1.0;
    for c in 0..4 {
        let candidate = (unit_hash(cfg.seed ^ 0x72, (page * 31 + slot * 7 + c) as u64, epoch)
            * cfg.pages as f64) as usize
            % cfg.pages;
        if candidate == page {
            continue;
        }
        let score = popularity(cfg.seed, candidate, wave);
        if score > best_score {
            best = candidate;
            best_score = score;
        }
    }
    best
}

/// Word count of a page at a wave (content volume drifts with popularity).
#[must_use]
pub fn word_count(cfg: &PagerankConfig, page: usize, wave: u64) -> f64 {
    let base = 300.0 + 500.0 * unit_hash(cfg.seed ^ 0x73, page as u64, 1);
    let drift = periodic_noise(cfg.seed ^ 0x74, page as u64, wave, 12, CYCLE_WAVES);
    (base * (0.8 + 0.4 * drift * popularity(cfg.seed, page, wave))).round()
}

/// The row key of every page, `page-NNNN`, indexed by page.
fn page_rows(pages: usize) -> Arc<[String]> {
    (0..pages).map(|p| format!("page-{p:04}")).collect()
}

/// The qualifiers a page's outlinks are stored under.
fn link_qualifiers(links_per_page: usize) -> Arc<[String]> {
    (0..links_per_page)
        .map(|slot| format!("link{slot}"))
        .collect()
}

/// The crawled adjacency: each page's in-range, non-self outlinks, read
/// from the `crawl` family. A page never crawled has none.
fn crawled_adjacency(crawl: &FamilyView<'_>, pages: usize, links: &[String]) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); pages];
    for (key, row) in crawl.rows() {
        let Some(p) = key
            .strip_prefix("page-")
            .and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        for link in links {
            if let Some(target) = row.f64(link) {
                let t = target as usize;
                if t < pages && t != p {
                    out[p].push(t);
                }
            }
        }
    }
    out
}

/// PageRank by power iteration over `out`, starting from the uniform
/// vector. A dangling page (no outlinks) spreads its rank uniformly, so
/// each iteration sums the dangling mass once and folds it into the base
/// every page starts from; only the linked pages' shares are scattered.
/// O(iterations × (pages + links)); Σ rank stays 1.
fn power_iteration(out: &[Vec<usize>], damping: f64, iterations: usize) -> Vec<f64> {
    let n = out.len() as f64;
    let mut rank = vec![1.0 / n; out.len()];
    let mut next = vec![0.0; out.len()];
    for _ in 0..iterations {
        let dangling: f64 = out
            .iter()
            .zip(&rank)
            .filter(|(targets, _)| targets.is_empty())
            .map(|(_, r)| r)
            .sum();
        next.fill((1.0 - damping) / n + damping * dangling / n);
        for (targets, r) in out.iter().zip(&rank) {
            if !targets.is_empty() {
                let share = damping * r / targets.len() as f64;
                for &t in targets {
                    next[t] += share;
                }
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Builds the PageRank workflow over a store.
#[derive(Debug, Clone, Default)]
pub struct PagerankFactory {
    /// Workload parameters.
    pub config: PagerankConfig,
}

impl PagerankFactory {
    /// A factory with the given workflow error bound.
    #[must_use]
    pub fn with_bound(bound: f64) -> Self {
        Self {
            config: PagerankConfig::with_bound(bound),
        }
    }
}

impl WorkloadFactory for PagerankFactory {
    fn build(&self, store: &DataStore) -> Workflow {
        let cfg = self.config.clone();
        for f in ["crawl", "histogram", "words", "ranks", "top"] {
            store
                .ensure_container(&ContainerRef::family(TABLE, f))
                .expect("container setup cannot fail on a fresh store");
        }

        let mut g = GraphBuilder::new("pagerank");
        let crawl = g.add_step("crawl");
        let histogram = g.add_step("link-histogram");
        let words = g.add_step("word-counts");
        let pagerank = g.add_step("pagerank");
        let ranking = g.add_step("ranking");
        g.add_edge(crawl, histogram).expect("valid edge");
        g.add_edge(crawl, words).expect("valid edge");
        g.add_edge(histogram, pagerank).expect("valid edge");
        g.add_edge(pagerank, ranking).expect("valid edge");
        let mut wf = Workflow::new(g.build().expect("pagerank graph is a DAG"));

        let crawlc = ContainerRef::family(TABLE, "crawl");
        let histc = ContainerRef::family(TABLE, "histogram");
        let wordsc = ContainerRef::family(TABLE, "words");
        let ranksc = ContainerRef::family(TABLE, "ranks");
        let topc = ContainerRef::family(TABLE, "top");

        // Row keys and link qualifiers are built once per workflow and
        // shared by every wave.
        let rows = page_rows(cfg.pages);
        let links = link_qualifiers(cfg.links_per_page);

        // Step 1: the crawler refreshes a rotating batch of pages.
        let (c, r, l) = (cfg.clone(), Arc::clone(&rows), Arc::clone(&links));
        wf.bind(
            crawl,
            FnStep::new(move |ctx: &StepContext| {
                let wave = ctx.wave();
                let mut crawl = Vec::with_capacity(c.crawl_batch * (l.len() + 1));
                for b in 0..c.crawl_batch {
                    let page = ((wave as usize * c.crawl_batch + b) * 7919 + b) % c.pages;
                    let row = &*r[page];
                    for (slot, link) in l.iter().enumerate() {
                        let target = outlink(&c, page, slot, wave);
                        crawl.push((row, &**link, Value::from(target as i64)));
                    }
                    crawl.push((row, "words", Value::from(word_count(&c, page, wave))));
                }
                ctx.family(TABLE, "crawl")?.put_many(crawl)?;
                Ok(())
            }),
        )
        .source()
        .writes(crawlc.clone());

        // Step 2: histogram of link-count differences per target page
        // (in-degree — §2.3's "reverse links").
        let (r, l) = (Arc::clone(&rows), Arc::clone(&links));
        wf.bind(
            histogram,
            FnStep::new(move |ctx: &StepContext| {
                let mut indegree = vec![0i64; r.len()];
                ctx.read(|view| {
                    for (_, row) in view.family(TABLE, "crawl")?.rows() {
                        for link in l.iter() {
                            if let Some(target) = row.f64(link) {
                                let t = target as usize;
                                if t < indegree.len() {
                                    indegree[t] += 1;
                                }
                            }
                        }
                    }
                    Ok::<_, StoreError>(())
                })?;
                let histogram = r
                    .iter()
                    .zip(&indegree)
                    .map(|(row, count)| (&**row, "indegree", Value::from(*count)))
                    .collect();
                ctx.family(TABLE, "histogram")?.put_many(histogram)?;
                Ok(())
            }),
        )
        .reads(crawlc.clone())
        .writes(histc.clone())
        .error_bound(cfg.bound);

        // Step 3: aggregate word counts (a content-volume histogram).
        let bucket_keys: Vec<String> = (0..8).map(|i| format!("bucket-{i}")).collect();
        wf.bind(
            words,
            FnStep::new(move |ctx: &StepContext| {
                let mut buckets = [0i64; 8];
                ctx.read(|r| {
                    for (_, row) in r.family(TABLE, "crawl")?.rows() {
                        // A crawled row without a word count is not a page.
                        if let Some(words) = row.value("words") {
                            let w = words.as_f64().unwrap_or(0.0);
                            let b = ((w / 150.0) as usize).min(7);
                            buckets[b] += 1;
                        }
                    }
                    Ok::<_, StoreError>(())
                })?;
                let words = bucket_keys
                    .iter()
                    .zip(buckets)
                    .map(|(row, count)| (&**row, "pages", Value::from(count)))
                    .collect();
                ctx.family(TABLE, "words")?.put_many(words)?;
                Ok(())
            }),
        )
        .reads(crawlc.clone())
        .writes(wordsc)
        .error_bound(cfg.bound);

        // Step 4: PageRank power iteration over the crawled adjacency.
        let c = cfg.clone();
        wf.bind(
            pagerank,
            FnStep::new(move |ctx: &StepContext| {
                let out = ctx.read(|r| {
                    let crawl = r.family(TABLE, "crawl")?;
                    Ok::<_, StoreError>(crawled_adjacency(&crawl, c.pages, &links))
                })?;
                let rank = power_iteration(&out, c.damping, c.iterations);
                let n = c.pages as f64;
                // Scaled to ~[0, 1000] for readability.
                let ranks = rows
                    .iter()
                    .zip(&rank)
                    .map(|(row, r)| (&**row, "value", Value::from(r * 1000.0 * n)))
                    .collect();
                ctx.family(TABLE, "ranks")?.put_many(ranks)?;
                Ok(())
            }),
        )
        .reads(histc)
        .reads(crawlc)
        .writes(ranksc.clone())
        .error_bound(cfg.bound);

        // Step 5: publish the top-k ranking — the workflow output whose
        // significance decision makers care about.
        let top_keys: Vec<String> = (0..cfg.top_k).map(|i| format!("pos-{i:02}")).collect();
        wf.bind(
            ranking,
            FnStep::new(move |ctx: &StepContext| {
                let mut scores: Vec<f64> = ctx.read(|r| {
                    let ranks = r.family(TABLE, "ranks")?.rows();
                    Ok::<_, StoreError>(
                        ranks
                            .map(|(_, row)| row.f64("value").unwrap_or(0.0))
                            .collect(),
                    )
                })?;
                scores.sort_by(|a, b| b.partial_cmp(a).expect("ranks are finite"));
                let top = top_keys
                    .iter()
                    .zip(scores)
                    .map(|(row, score)| (&**row, "score", Value::from(score)))
                    .collect();
                ctx.family(TABLE, "top")?.put_many(top)?;
                Ok(())
            }),
        )
        .reads(ranksc)
        .writes(topc)
        .error_bound(cfg.bound);

        debug_assert!(wf.first_unbound().is_none());
        budget_upstream(&mut wf, UPSTREAM_FRACTION);
        wf
    }

    fn output_step(&self) -> &str {
        "ranking"
    }

    fn name(&self) -> &str {
        "pagerank"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux_datastore::ScanFilter;
    use smartflux_wms::{Scheduler, SynchronousPolicy};

    #[test]
    fn popularity_is_bounded_and_periodic() {
        for w in 0..CYCLE_WAVES {
            let p = popularity(23, 17, w);
            assert!((0.0..=1.0).contains(&p));
            assert_eq!(p, popularity(23, 17, w + CYCLE_WAVES));
        }
    }

    #[test]
    fn outlinks_avoid_self_and_stay_in_range() {
        let cfg = PagerankConfig::default();
        for page in [0, 13, 99] {
            for slot in 0..cfg.links_per_page {
                for wave in [0, 50, 140] {
                    let t = outlink(&cfg, page, slot, wave);
                    assert!(t < cfg.pages);
                    assert_ne!(t, page);
                }
            }
        }
    }

    #[test]
    fn links_churn_slowly() {
        let cfg = PagerankConfig::default();
        let mut changes = 0;
        let mut total = 0;
        for wave in 1..100 {
            for page in 0..20 {
                for slot in 0..cfg.links_per_page {
                    total += 1;
                    if outlink(&cfg, page, slot, wave) != outlink(&cfg, page, slot, wave - 1) {
                        changes += 1;
                    }
                }
            }
        }
        let rate = changes as f64 / total as f64;
        assert!(rate < 0.35, "links churn too fast: {rate}");
        assert!(rate > 0.005, "links never churn: {rate}");
    }

    /// The default configuration and the wide one the end-to-end benchmark
    /// runs (1 000 pages, batch 25: 80 % of pages dangling).
    fn factories(bound: f64) -> [PagerankFactory; 2] {
        let default = PagerankFactory::with_bound(bound);
        let mut wide = default.clone();
        wide.config.pages = 1000;
        wide.config.crawl_batch = 25;
        [default, wide]
    }

    /// The crawled adjacency after `waves` synchronous waves.
    fn adjacency_after(factory: &PagerankFactory, waves: u64) -> Vec<Vec<usize>> {
        let store = DataStore::new();
        let wf = factory.build(&store);
        let mut sched = Scheduler::new(wf, store.clone(), Box::new(SynchronousPolicy));
        sched.run_waves(waves).unwrap();
        let links = link_qualifiers(factory.config.links_per_page);
        store.read(|r| {
            let crawl = r.family(TABLE, "crawl").unwrap();
            crawled_adjacency(&crawl, factory.config.pages, &links)
        })
    }

    /// The power iteration `power_iteration` replaced: every dangling page
    /// adds its share to every entry of `next`, O(pages²) per iteration.
    fn power_iteration_reference(out: &[Vec<usize>], damping: f64, iterations: usize) -> Vec<f64> {
        let n = out.len() as f64;
        let mut rank = vec![1.0 / n; out.len()];
        for _ in 0..iterations {
            let mut next = vec![(1.0 - damping) / n; out.len()];
            for (p, targets) in out.iter().enumerate() {
                if targets.is_empty() {
                    let share = damping * rank[p] / n;
                    for v in &mut next {
                        *v += share;
                    }
                } else {
                    let share = damping * rank[p] / targets.len() as f64;
                    for &t in targets {
                        next[t] += share;
                    }
                }
            }
            rank = next;
        }
        rank
    }

    #[test]
    fn power_iteration_matches_the_quadratic_reference() {
        let [default, wide] = factories(0.1);
        let dangling = |out: &[Vec<usize>]| out.iter().filter(|t| t.is_empty()).count();
        let crawled_default = adjacency_after(&default, 8);
        assert_eq!(
            dangling(&crawled_default),
            116,
            "the crawl reaches 4 of 120 pages"
        );
        let crawled_wide = adjacency_after(&wide, 40);
        assert_eq!(
            dangling(&crawled_wide),
            800,
            "the crawl reaches 200 of 1 000 pages"
        );
        let all_dangling = vec![Vec::new(); 64];
        let none_dangling: Vec<Vec<usize>> = (0..64)
            .map(|p| vec![(p + 1) % 64, (p * 7 + 3) % 64])
            .collect();
        let duplicates: Vec<Vec<usize>> = (0..64)
            .map(|p| match p % 3 {
                0 => vec![(p + 1) % 64, (p + 1) % 64, (p + 5) % 64],
                1 => vec![0, 0],
                _ => Vec::new(),
            })
            .collect();
        for (name, out) in [
            ("default crawl", &crawled_default),
            ("wide crawl", &crawled_wide),
            ("all dangling", &all_dangling),
            ("none dangling", &none_dangling),
            ("duplicate targets", &duplicates),
        ] {
            let fast = power_iteration(out, 0.85, 15);
            let reference = power_iteration_reference(out, 0.85, 15);
            assert_eq!(fast.len(), reference.len(), "{name}");
            for (p, (f, r)) in fast.iter().zip(&reference).enumerate() {
                assert!(
                    (f - r).abs() <= 1e-12 * r.abs(),
                    "{name}: page {p} rank {f} vs reference {r}"
                );
            }
            let mass: f64 = fast.iter().sum();
            assert!((mass - 1.0).abs() <= 1e-12, "{name}: Σ rank = {mass}");
        }
    }

    #[test]
    fn workflow_produces_a_ranking() {
        for factory in factories(0.1) {
            let pages = factory.config.pages;
            let store = DataStore::new();
            let wf = factory.build(&store);
            assert_eq!(wf.graph().len(), 5);
            let mut sched = Scheduler::new(wf, store.clone(), Box::new(SynchronousPolicy));
            // Eight waves of crawling, then rank what was crawled.
            sched.run_waves(8).unwrap();
            let top = store.scan(TABLE, "top", &ScanFilter::all()).unwrap();
            assert_eq!(top.len(), factory.config.top_k, "{pages} pages");
            // Scores are sorted descending by position.
            let scores: Vec<f64> = top.iter().filter_map(|r| r.f64("score")).collect();
            for pair in scores.windows(2) {
                assert!(pair[0] >= pair[1], "ranking must be sorted: {scores:?}");
            }
            // Power iteration conserves probability mass: Σ rank = 1, and
            // each stored value is rank × 1000 × n, so the stored total is
            // 1000 × n.
            let total: f64 = store
                .scan(TABLE, "ranks", &ScanFilter::all())
                .unwrap()
                .iter()
                .filter_map(|r| r.f64("value"))
                .sum();
            let expected = 1000.0 * pages as f64;
            assert!(
                (total - expected).abs() / expected < 0.01,
                "{pages} pages: rank mass {total} vs expected {expected}"
            );
        }
    }

    #[test]
    fn twin_builds_are_identical() {
        for factory in factories(0.05) {
            let (s1, s2) = (DataStore::new(), DataStore::new());
            let mut a = Scheduler::new(factory.build(&s1), s1.clone(), Box::new(SynchronousPolicy));
            let mut b = Scheduler::new(factory.build(&s2), s2.clone(), Box::new(SynchronousPolicy));
            a.run_waves(6).unwrap();
            b.run_waves(6).unwrap();
            for fam in ["top", "ranks", "histogram"] {
                let c = ContainerRef::family(TABLE, fam);
                let pages = factory.config.pages;
                assert_eq!(
                    s1.snapshot(&c).unwrap(),
                    s2.snapshot(&c).unwrap(),
                    "{fam}, {pages} pages"
                );
            }
        }
    }
}
