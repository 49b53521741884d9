//! Cross-design candidate cache for DSE sweeps.
//!
//! A [`CandidateCache`] memoises the outcome of [`search`] keyed by the
//! canonical [`SearchSpaceKey`] of the (layer, architecture) pair plus
//! the search budget (`samples`, `top_k`, `seed`). Key equality
//! guarantees an identical sample stream and bit-identical evaluations
//! (see `secureloop_loopnest::key`), so a hit returns exactly what a
//! fresh search would have computed — design points of a sweep that
//! agree on the key share one mapper run. In random mode, design points
//! that only agree on their draw identity (PE array, register file,
//! dataflow) share one draw stream: a miss runs one [`search_group`]
//! for them all and fills each one's entry (see [`search_cached`]).
//!
//! An entry stores only what determines its outcome beyond the key:
//! the retained mappings, best first, plus the tier and the sample
//! tallies. Every hit re-prices those mappings with [`evaluate`]
//! against the hitting layer and architecture; key equality makes that
//! exact, so a hit costs top-k evaluations (not a search) and the
//! evaluations themselves are never stored. A mapping that fails to
//! evaluate on a hit (a damaged file whose mappings still parse)
//! evicts the entry and demotes the request to a miss.
//!
//! The cache round-trips to disk through
//! [`secureloop_artifact::Persistent`], like `SweepCheckpoint`, so
//! `--resume` runs start warm. On disk each mapping is in compact text
//! form; loading parses it into the same entry form, so a record whose
//! mapping does not parse is dropped by the artifact salvage ladder.
//!
//! Lookups are bypassed — never consulted, never populated — when the
//! search carries a wall-clock deadline (truncated results are
//! non-deterministic) or its task carries a fault plan (fault injection
//! keys on layer *names*, which the canonical key deliberately omits).
//! Other tasks sharing the cache keep using it.

use std::collections::{HashMap, HashSet};
use std::mem::size_of;
use std::ops::RangeInclusive;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use secureloop_arch::Architecture;
use secureloop_artifact::{self as artifact, ArtifactError, DurabilityPolicy, Persistent};
use secureloop_json::Json;
use secureloop_loopnest::{evaluate, CompactMapping, DrawIdentity, Mapping, SearchSpaceKey};
use secureloop_telemetry::Counter;
use secureloop_workload::ConvLayer;

use crate::{
    cancel, search, search_group, MapperError, MapperResult, SearchConfig, SearchMode, SearchTier,
};

static CACHE_HIT: Counter = Counter::new("dse.cache_hit");
static CACHE_MISS: Counter = Counter::new("dse.cache_miss");

/// Current cache-file schema version; bumped on incompatible changes.
/// Version 2 added the search-mode component to entry keys, so version-1
/// files (whose keys would silently alias guided and random results) are
/// rejected with a clear message instead of serving stale entries.
/// Version 3 added the protection-scheme component (`sch:`) to the
/// canonical [`SearchSpaceKey`], so version-2 files — whose entries
/// could alias candidates across schemes that share derived
/// bandwidth/energy numbers — are likewise rejected.
pub const CACHE_VERSION: u64 = 3;

/// Fixed approximate overhead charged per cache entry (key, hash-map
/// slot, bookkeeping).
const PER_ENTRY_BYTES: usize = 256;

/// One cached search outcome, less the evaluations a hit recomputes.
#[derive(Debug)]
struct Stored {
    /// The retained mappings, best first (never empty).
    mappings: Vec<Mapping>,
    tier: SearchTier,
    valid_samples: usize,
    total_samples: usize,
    /// Logical timestamp of the last hit (or the insert); smallest is
    /// evicted first.
    last_used: u64,
}

impl Stored {
    fn of(result: &MapperResult) -> Stored {
        Stored {
            mappings: result.candidates.iter().map(|(m, _)| m.clone()).collect(),
            tier: result.tier,
            valid_samples: result.valid_samples,
            total_samples: result.total_samples,
            last_used: 0,
        }
    }

    /// Bytes charged against the budget for this entry under `key`.
    fn cost(&self, key: &str) -> usize {
        PER_ENTRY_BYTES + key.len() + self.mappings.len() * size_of::<Mapping>()
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Stored>,
    /// Monotonic logical clock driving the LRU order.
    clock: u64,
    /// Sum of every stored entry's cost.
    bytes: usize,
    /// Keys a running group search will insert; a requester of one
    /// waits for it instead of searching again.
    in_flight: HashSet<String>,
}

impl Inner {
    fn remove(&mut self, key: &str) {
        if let Some(removed) = self.map.remove(key) {
            self.bytes -= removed.cost(key);
        }
    }

    /// Look up a search outcome, re-pricing its mappings against the
    /// hitting (layer, arch) — key equality makes that exact. Returns
    /// `None` (a miss) when absent or when a mapping fails to evaluate,
    /// which evicts the entry. A hit refreshes the entry's LRU position.
    fn lookup(
        &mut self,
        key: &str,
        layer: &ConvLayer,
        arch: &Architecture,
    ) -> Option<MapperResult> {
        let clock = self.clock + 1;
        let entry = self.map.get_mut(key)?;
        let priced: Result<Vec<_>, _> = entry
            .mappings
            .iter()
            .map(|m| evaluate(layer, arch, m).map(|e| (m.clone(), e)))
            .collect();
        let Ok(candidates) = priced else {
            self.remove(key);
            return None;
        };
        entry.last_used = clock;
        self.clock = clock;
        Some(MapperResult {
            candidates,
            valid_samples: entry.valid_samples,
            total_samples: entry.total_samples,
            tier: entry.tier,
            truncated: false,
        })
    }

    fn insert(&mut self, key: String, mut entry: Stored) {
        self.remove(&key);
        self.clock += 1;
        entry.last_used = self.clock;
        self.bytes += entry.cost(&key);
        self.map.insert(key, entry);
    }

    /// Evict least-recently-used entries until the budget is met,
    /// keeping at least the most recent entry (so a single entry larger
    /// than the budget still serves hits instead of thrashing). Returns
    /// how many entries were evicted.
    fn enforce(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget && self.map.len() > 1 {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// Shared memo of per-layer mapper searches, keyed by canonical search
/// space + budget. Thread-safe: one instance serves a whole parallel
/// sweep — or, in service mode, every job of a long-running process,
/// where [`CandidateCache::with_budget_bytes`] bounds its footprint
/// with LRU eviction. Eviction never changes results: a re-computed
/// entry is byte-identical to the evicted one (key equality pins the
/// sample stream), it only costs the recomputation.
#[derive(Debug, Default)]
pub struct CandidateCache {
    inner: Mutex<Inner>,
    /// Notified whenever a group search releases its claimed keys.
    settled: Condvar,
    /// Approximate byte budget; `None` = unbounded (the one-shot CLI
    /// default, where a sweep's working set is naturally bounded).
    budget: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The exact cache key a `(layer, arch, cfg)` triple resolves to:
/// canonical search-space key plus the budget fields that change the
/// sample stream — including the search mode, so guided and random
/// results can never alias. Public so tests (and diagnostics) can
/// assert on key structure.
pub fn cache_key(layer: &ConvLayer, arch: &Architecture, cfg: &SearchConfig) -> String {
    full_key(&SearchSpaceKey::of(layer, arch), cfg)
}

fn full_key(space: &SearchSpaceKey, cfg: &SearchConfig) -> String {
    // `threads` is deliberately absent: the chunked search is
    // byte-identical for any worker count. `deadline` never reaches a
    // cache lookup (bypassed in `search_cached`).
    format!(
        "{}|cfg[s{},k{},seed{},m{}]",
        space.as_str(),
        cfg.samples,
        cfg.top_k,
        cfg.seed,
        cfg.mode.key_component()
    )
}

impl CandidateCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        CandidateCache::default()
    }

    /// Bound the cache's approximate footprint: each entry is charged a
    /// fixed 256 bytes, plus its key's length, plus
    /// `size_of::<Mapping>()` per retained mapping (evaluations are
    /// recomputed on hit, so they are not charged). Once the budget is
    /// exceeded, least-recently-used entries are evicted (the most
    /// recent entry always survives). The budget is enforced
    /// immediately, so applying it to a freshly-loaded cache trims it
    /// right away.
    pub fn with_budget_bytes(mut self, bytes: usize) -> Self {
        self.budget = Some(bytes);
        let evicted = self.inner.lock().expect("cache lock").enforce(bytes);
        self.note_evictions(evicted);
        self
    }

    /// The configured byte budget, if any.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget
    }

    /// Bytes currently charged against the budget, summed over entries
    /// as [`CandidateCache::with_budget_bytes`] describes. An estimate
    /// that bounds growth; it does not audit the allocator.
    pub fn approx_bytes(&self) -> usize {
        self.inner.lock().expect("cache lock").bytes
    }

    /// Searches answered from the cache by this instance.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Searches this instance had to compute (or refused to trust).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay within the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn note_evictions(&self, n: u64) {
        if n > 0 {
            self.evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Number of cached search outcomes.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve `key` for a [`search_cached`] request: a hit, or a miss
    /// that claims `key` and the keys of `siblings` (each with its
    /// design) that are neither cached nor claimed. A key claimed by a
    /// running group search is waited for and then resolved again, so
    /// that search's result counts as a hit here. The claim is released
    /// when the returned [`Claim`] drops.
    ///
    /// # Errors
    ///
    /// [`MapperError::Cancelled`] when the requesting task is cancelled
    /// while it waits.
    fn claim<'a>(
        &'a self,
        key: &str,
        layer: &ConvLayer,
        arch: &Architecture,
        siblings: impl FnOnce() -> Vec<(String, &'a Architecture)>,
    ) -> Result<Lookup<'a>, MapperError> {
        let token = cancel::current_context().token;
        let mut inner = self.inner.lock().expect("cache lock");
        while inner.in_flight.contains(key) {
            if token.is_cancelled() {
                return Err(MapperError::Cancelled {
                    layer: layer.name().to_string(),
                });
            }
            inner = self
                .settled
                .wait_timeout(inner, Duration::from_millis(50))
                .expect("cache lock")
                .0;
        }
        if let Some(hit) = inner.lookup(key, layer, arch) {
            return Ok(Lookup::Hit(hit));
        }
        let mut keys = vec![key.to_string()];
        let mut designs = Vec::new();
        for (k, a) in siblings() {
            if !keys.contains(&k) && !inner.in_flight.contains(&k) && !inner.map.contains_key(&k) {
                keys.push(k);
                designs.push(a);
            }
        }
        inner.in_flight.extend(keys.iter().cloned());
        Ok(Lookup::Miss(Claim {
            cache: self,
            keys,
            designs,
        }))
    }

    fn insert(&self, key: String, result: &MapperResult) {
        // Truncated results are deadline artefacts and must never be
        // shared (callers already bypass the cache under a deadline —
        // this is belt and braces).
        if result.truncated {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.insert(key, Stored::of(result));
        if let Some(budget) = self.budget {
            let evicted = inner.enforce(budget);
            drop(inner);
            self.note_evictions(evicted);
        }
    }

    /// Write the cache durably with `policy` ([`artifact::save`]).
    ///
    /// # Errors
    ///
    /// A typed [`ArtifactError`] carrying the path, on I/O failure
    /// (after the policy's retries).
    pub fn save_with(&self, path: &Path, policy: &DurabilityPolicy) -> Result<(), ArtifactError> {
        artifact::save(self, path, policy)
    }
}

/// On disk, one record per entry, sorted by key, mappings in compact
/// text form. Loading parses every mapping, so a loaded entry has the
/// same form as an inserted one. Only the current version loads: an
/// older file's keys could alias candidates across search modes or
/// protection schemes.
impl Persistent for CandidateCache {
    const KIND: &'static str = "candidate-cache";
    const NOUN: &'static str = "cache";
    const VERSIONS: RangeInclusive<u64> = CACHE_VERSION..=CACHE_VERSION;
    const HEADER: &'static [&'static str] = &[];
    const RECORDS: &'static [&'static str] = &["entries"];

    fn header(&self) -> Vec<Json> {
        Vec::new()
    }

    fn from_header(_: &Json) -> Result<Self, String> {
        Ok(CandidateCache::new())
    }

    fn write_records(&self, _: &str) -> Vec<Json> {
        let inner = self.inner.lock().expect("cache lock");
        let mut entries: Vec<(&String, &Stored)> = inner.map.iter().collect();
        entries.sort_by_key(|(key, _)| *key);
        entries
            .into_iter()
            .map(|(key, entry)| {
                let mappings = entry
                    .mappings
                    .iter()
                    .map(|m| Json::from(CompactMapping(m).to_string().as_str()))
                    .collect();
                Json::obj()
                    .field("key", key.as_str())
                    .field("tier", entry.tier.name())
                    .field("valid_samples", entry.valid_samples as u64)
                    .field("total_samples", entry.total_samples as u64)
                    .field("mappings", Json::Arr(mappings))
            })
            .collect()
    }

    fn read_record(&mut self, _: &str, e: &Json) -> Result<(), String> {
        let field = |name: &str| format!("missing or invalid field '{name}'");
        let key = e["key"].as_str().ok_or_else(|| field("key"))?;
        let tier = e["tier"]
            .as_str()
            .and_then(SearchTier::from_name)
            .ok_or_else(|| field("tier"))?;
        let valid_samples = e["valid_samples"]
            .as_usize()
            .ok_or_else(|| field("valid_samples"))?;
        let total_samples = e["total_samples"]
            .as_usize()
            .ok_or_else(|| field("total_samples"))?;
        let mappings = e["mappings"]
            .as_array()
            .filter(|list| !list.is_empty())
            .ok_or_else(|| field("mappings"))?
            .iter()
            .map(|m| {
                let text = m.as_str().ok_or_else(|| field("mappings"))?;
                text.parse()
                    .map_err(|err| format!("unparseable mapping '{text}': {err}"))
            })
            .collect::<Result<Vec<Mapping>, _>>()?;
        let entry = Stored {
            mappings,
            tier,
            valid_samples,
            total_samples,
            last_used: 0,
        };
        let inner = self.inner.get_mut().expect("cache lock");
        inner.insert(key.to_string(), entry);
        Ok(())
    }
}

/// How [`CandidateCache::claim`] resolved a request.
enum Lookup<'a> {
    Hit(MapperResult),
    Miss(Claim<'a>),
}

/// Keys a [`search_cached`] miss claimed in a [`CandidateCache`], and the
/// sibling designs whose keys they are (the requesting design's own key
/// comes first and has no entry in `designs`). Dropping it releases the
/// keys and wakes the requesters waiting on them, also when the search
/// panics.
struct Claim<'a> {
    cache: &'a CandidateCache,
    keys: Vec<String>,
    designs: Vec<&'a Architecture>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut inner = self
            .cache
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for key in &self.keys {
            inner.in_flight.remove(key);
        }
        drop(inner);
        self.cache.settled.notify_all();
    }
}

/// [`search`] with a shared memo: consult `cache` first, populate it on
/// a miss. Falls back to a plain search (no lookup, no insert) when
/// `cache` is `None`, when the config carries a deadline, or when the
/// current task bypasses the cache ([`cancel::cache_bypassed`]: it
/// retries after a crash, or carries a fault plan) — each would break
/// the "key determines the outcome" contract.
///
/// On a miss in [`SearchMode::Random`], the search also covers every
/// design of `siblings` that shares `arch`'s [`DrawIdentity`] and whose
/// own key misses: one [`search_group`] draws the stream once and
/// prices it for all of them, and every result enters the cache. While
/// it runs, its keys are claimed, so a concurrent request for one of
/// them waits and then counts a hit. Hits and misses therefore do not
/// depend on how many workers share the cache. A cancelled group
/// search inserts nothing.
///
/// # Errors
///
/// Exactly those of [`search`]; errors are never cached.
pub fn search_cached(
    layer: &ConvLayer,
    arch: &Architecture,
    siblings: &[Architecture],
    cfg: &SearchConfig,
    cache: Option<&CandidateCache>,
) -> Result<MapperResult, MapperError> {
    // Deadline-truncated results are not reusable, a task's fault plan
    // keys on layer names a shared cache would conflate, and a task
    // retrying after a panic/timeout must not consult (or populate)
    // shared state its previous attempt may have been corrupting.
    let cache = match cache {
        Some(c) if cfg.deadline.is_none() && !cancel::cache_bypassed() => c,
        _ => return search(layer, arch, cfg),
    };
    let key = full_key(&SearchSpaceKey::of(layer, arch), cfg);
    let siblings = || {
        if cfg.mode != SearchMode::Random {
            return Vec::new();
        }
        let identity = DrawIdentity::of(arch);
        siblings
            .iter()
            .filter(|a| DrawIdentity::of(a) == identity)
            .map(|a| (full_key(&SearchSpaceKey::of(layer, a), cfg), a))
            .collect()
    };
    let claim = match cache.claim(&key, layer, arch, siblings)? {
        Lookup::Hit(hit) => {
            cache.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_HIT.incr();
            return Ok(hit);
        }
        Lookup::Miss(claim) => claim,
    };
    cache.misses.fetch_add(1, Ordering::Relaxed);
    CACHE_MISS.incr();
    let designs: Vec<&Architecture> = std::iter::once(arch)
        .chain(claim.designs.iter().copied())
        .collect();
    let mut results = search_group(layer, &designs, cfg);
    if !results
        .iter()
        .any(|r| matches!(r, Err(MapperError::Cancelled { .. })))
    {
        for (key, result) in claim.keys.iter().zip(&results) {
            if let Ok(result) = result {
                cache.insert(key.clone(), result);
            }
        }
    }
    drop(claim);
    results.swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, FaultScope};
    use secureloop_artifact::LoadSource;
    use secureloop_workload::zoo;
    use std::fs;
    use std::time::Duration;

    fn layer() -> ConvLayer {
        zoo::alexnet_conv().layers()[2].clone()
    }

    #[test]
    fn second_search_hits_and_matches_the_first() {
        let cache = CandidateCache::new();
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();
        let a = search_cached(&layer(), &arch, &[], &cfg, Some(&cache)).unwrap();
        let b = search_cached(&layer(), &arch, &[], &cfg, Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(a.candidates.len(), b.candidates.len());
        for ((ma, ea), (mb, eb)) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(ma, mb);
            assert_eq!(ea.latency_cycles, eb.latency_cycles);
            assert_eq!(ea.energy_pj.to_bits(), eb.energy_pj.to_bits());
        }
    }

    #[test]
    fn renamed_architecture_shares_the_entry() {
        let cache = CandidateCache::new();
        let cfg = SearchConfig::quick();
        let a = Architecture::eyeriss_base();
        let b = a.clone().with_name("same-hardware-other-label");
        search_cached(&layer(), &a, &[], &cfg, Some(&cache)).unwrap();
        search_cached(&layer(), &b, &[], &cfg, Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 1, "identical hardware must share");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_budget_is_a_different_entry() {
        let cache = CandidateCache::new();
        let arch = Architecture::eyeriss_base();
        search_cached(&layer(), &arch, &[], &SearchConfig::quick(), Some(&cache)).unwrap();
        search_cached(
            &layer(),
            &arch,
            &[],
            &SearchConfig::quick().with_seed(99),
            Some(&cache),
        )
        .unwrap();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn guided_and_random_never_share_an_entry() {
        let cache = CandidateCache::new();
        let arch = Architecture::eyeriss_base();
        let random = SearchConfig::quick();
        let guided = SearchConfig::quick().with_mode(crate::SearchMode::Guided);
        // The key structure itself must keep the modes apart.
        let rk = cache_key(&layer(), &arch, &random);
        let gk = cache_key(&layer(), &arch, &guided);
        assert_ne!(rk, gk);
        assert!(rk.ends_with(",mr]"), "random key component: {rk}");
        assert!(gk.ends_with(",mg]"), "guided key component: {gk}");
        // And the runtime behaviour must follow: two distinct entries,
        // no cross-mode hit in either direction.
        search_cached(&layer(), &arch, &[], &random, Some(&cache)).unwrap();
        search_cached(&layer(), &arch, &[], &guided, Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 0, "modes must not alias");
        assert_eq!(cache.len(), 2);
        search_cached(&layer(), &arch, &[], &random, Some(&cache)).unwrap();
        search_cached(&layer(), &arch, &[], &guided, Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 2, "same-mode lookups still hit");
    }

    /// `a` and `b` agree bit for bit: mappings, every evaluation field
    /// (f64 fields by their bits), tallies and tier.
    fn assert_bit_identical(a: &MapperResult, b: &MapperResult, ctx: &str) {
        let bits = |e: &secureloop_loopnest::Evaluation| {
            let n = &e.energy;
            [
                e.energy_pj,
                e.utilization,
                n.mac_pj,
                n.rf_pj,
                n.glb_pj,
                n.noc_pj,
                n.dram_pj,
                n.crypto_pj,
            ]
            .map(f64::to_bits)
        };
        let tallies = |r: &MapperResult| (r.tier, r.valid_samples, r.total_samples, r.truncated);
        assert_eq!(tallies(a), tallies(b), "{ctx}: tier and tallies");
        assert_eq!(a.candidates.len(), b.candidates.len(), "{ctx}: candidates");
        for (i, ((ma, ea), (mb, eb))) in a.candidates.iter().zip(&b.candidates).enumerate() {
            assert_eq!(ma, mb, "{ctx}: mapping {i}");
            assert_eq!(bits(ea), bits(eb), "{ctx}: f64 bits of evaluation {i}");
            assert_eq!(
                format!("{ea:?}"),
                format!("{eb:?}"),
                "{ctx}: evaluation {i}"
            );
        }
    }

    #[test]
    fn a_random_miss_fills_the_entries_of_siblings_sharing_its_draws() {
        let arch = Architecture::eyeriss_base();
        let siblings = [
            arch.clone().with_glb_kb(16),
            arch.clone().with_pe_array(14, 24),
        ];
        let tiny = ConvLayer::builder("pointwise")
            .input_hw(1, 1)
            .channels(4, 8)
            .kernel(1, 1)
            .build()
            .unwrap();
        let random = SearchConfig::quick();
        let inputs = [
            (layer(), random, SearchTier::Sampled),
            (tiny, random, SearchTier::Exhaustive),
            (layer(), random.with_samples(0), SearchTier::Greedy),
        ];
        for (layer, cfg, tier) in inputs {
            let cache = CandidateCache::new();
            let own = search_cached(&layer, &arch, &siblings, &cfg, Some(&cache)).unwrap();
            assert_eq!(own.tier, tier);
            // The 16 kB sibling shares the 14x12 array; the 14x24 one does not.
            assert_eq!((cache.misses(), cache.len()), (1, 2), "{tier:?}");
            assert_bit_identical(&own, &search(&layer, &arch, &cfg).unwrap(), "miss");
            // Each hit re-prices the stored mappings for its own design
            // and must equal that design's own search.
            for (i, design) in [&arch, &siblings[0]].into_iter().enumerate() {
                let hit = search_cached(&layer, design, &[], &cfg, Some(&cache)).unwrap();
                assert_eq!(cache.hits(), i as u64 + 1, "{tier:?}: the group filled it");
                let ctx = format!("{tier:?} hit on design {i}");
                assert_bit_identical(&hit, &search(&layer, design, &cfg).unwrap(), &ctx);
            }
        }
        // Guided search anchors on per-design discoveries: no group.
        let guided = SearchConfig::quick().with_mode(crate::SearchMode::Guided);
        let cache = CandidateCache::new();
        search_cached(&layer(), &arch, &siblings, &guided, Some(&cache)).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_request_for_a_claimed_key_waits_for_the_claim() {
        let cache = CandidateCache::new();
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();
        let key = cache_key(&layer(), &arch, &cfg);
        let Ok(Lookup::Miss(claim)) = cache.claim(&key, &layer(), &arch, Vec::new) else {
            panic!("an empty cache misses");
        };
        // A cancelled requester gives up while it waits: it returns
        // without searching and without counting a miss.
        let token = crate::CancelToken::new();
        token.cancel();
        {
            let _task = crate::TaskScope::enter(crate::TaskContext {
                token,
                ..crate::TaskContext::default()
            });
            let err = search_cached(&layer(), &arch, &[], &cfg, Some(&cache)).unwrap_err();
            assert!(matches!(err, MapperError::Cancelled { .. }), "{err}");
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // Once the claim settles with a result, the request hits it.
        let result = search(&layer(), &arch, &cfg).unwrap();
        cache.insert(key, &result);
        drop(claim);
        let hit = search_cached(&layer(), &arch, &[], &cfg, Some(&cache)).unwrap();
        assert_eq!(format!("{hit:?}"), format!("{result:?}"));
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn deadline_and_faults_bypass_the_cache() {
        let cache = CandidateCache::new();
        let arch = Architecture::eyeriss_base();
        let with_deadline = SearchConfig::quick().with_deadline(Duration::from_secs(60));
        search_cached(&layer(), &arch, &[], &with_deadline, Some(&cache)).unwrap();
        assert_eq!(cache.len(), 0, "deadline searches must not populate");
        assert_eq!(cache.hits() + cache.misses(), 0);

        let _scope = FaultScope::inject(FaultPlan::fail(["not-this-layer"]));
        search_cached(&layer(), &arch, &[], &SearchConfig::quick(), Some(&cache)).unwrap();
        assert_eq!(cache.len(), 0, "armed fault plans must bypass");
        let elsewhere = std::thread::scope(|s| {
            s.spawn(|| search_cached(&layer(), &arch, &[], &SearchConfig::quick(), Some(&cache)))
                .join()
                .unwrap()
        });
        elsewhere.unwrap();
        assert_eq!(
            cache.len(),
            1,
            "a task without the plan still uses the cache"
        );
    }

    #[test]
    fn disk_round_trip_thaws_to_identical_results() {
        let dir = std::env::temp_dir().join("secureloop-cache-roundtrip");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();

        let cold = CandidateCache::new();
        let fresh = search_cached(&layer(), &arch, &[], &cfg, Some(&cold)).unwrap();
        cold.save_with(&path, &DurabilityPolicy::default()).unwrap();
        assert!(!path.with_extension("tmp").exists());

        let rec = artifact::load::<CandidateCache>(&path).unwrap();
        assert_eq!(rec.source, LoadSource::Primary);
        let warm = rec.value;
        assert_eq!(warm.len(), 1);
        let thawed = search_cached(&layer(), &arch, &[], &cfg, Some(&warm)).unwrap();
        assert_eq!(warm.hits(), 1, "frozen entry must count as a hit");
        assert_eq!(thawed.candidates.len(), fresh.candidates.len());
        assert_eq!(thawed.tier, fresh.tier);
        assert_eq!(thawed.valid_samples, fresh.valid_samples);
        assert_eq!(thawed.total_samples, fresh.total_samples);
        for ((ma, ea), (mb, eb)) in thawed.candidates.iter().zip(&fresh.candidates) {
            assert_eq!(ma, mb);
            assert_eq!(ea.latency_cycles, eb.latency_cycles);
            assert_eq!(ea.energy_pj.to_bits(), eb.energy_pj.to_bits());
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupted_cache_files_are_rejected_with_a_message() {
        let dir = std::env::temp_dir().join("secureloop-cache-corrupt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        fs::write(&path, "{torn write").unwrap();
        let err = artifact::load::<CandidateCache>(&path).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Corrupt { ref message, .. } if message.contains("parse")),
            "{err}"
        );
        assert!(err.path().contains("cache.json"), "typed error names path");

        fs::write(
            &path,
            r#"{"version": 99, "kind": "candidate-cache", "entries": []}"#,
        )
        .unwrap();
        assert!(artifact::load::<CandidateCache>(&path)
            .unwrap_err()
            .to_string()
            .contains("version 99"));

        fs::write(&path, r#"{"version": 3, "kind": "something-else"}"#).unwrap();
        assert!(artifact::load::<CandidateCache>(&path)
            .unwrap_err()
            .to_string()
            .contains("kind"));

        fs::write(&path, "").unwrap();
        let err = artifact::load::<CandidateCache>(&path).unwrap_err();
        assert!(err.is_empty(), "0-byte cache is typed Empty, got {err:?}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_cache_salvages_intact_entries_and_never_crosses_versions() {
        let dir = std::env::temp_dir().join("secureloop-cache-salvage");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let _ = fs::remove_file(path.with_extension("bak"));
        let layers: Vec<ConvLayer> = zoo::alexnet_conv().layers().to_vec();
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();
        let cache = CandidateCache::new();
        search_cached(&layers[0], &arch, &[], &cfg, Some(&cache)).unwrap();
        search_cached(&layers[1], &arch, &[], &cfg, Some(&cache)).unwrap();
        let text = cache.to_json().pretty();
        // Tear inside the second entry (mid-way through its "mappings"
        // key, the last field of the last entry); the footer is lost.
        let cut = text.rfind("mappings").unwrap() + 4;
        fs::write(&path, &text[..cut]).unwrap();

        let rec = artifact::load::<CandidateCache>(&path).unwrap();
        assert_eq!(
            rec.source,
            LoadSource::PrimarySalvaged,
            "strict load rejects"
        );
        assert_eq!(rec.value.len(), 1, "one intact entry survives the tear");
        assert!(rec.warnings[0].contains("salvaged"), "{:?}", rec.warnings);

        // A v2 file must never be entry-mined into a v3 cache.
        let v2 = text.replacen("\"version\": 3", "\"version\": 2", 1);
        fs::write(&path, &v2[..v2.len() - 2]).unwrap();
        let err = artifact::load::<CandidateCache>(&path).unwrap_err();
        assert!(
            !err.is_empty(),
            "wrong-version salvage must fail typed, got {err:?}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn v2_cache_files_are_rejected_cleanly_by_the_v3_loader() {
        // A perfectly well-formed version-2 file (pre-scheme keys) must
        // be refused outright — its entries could alias candidates
        // across protection schemes — and the refusal must be a clean
        // recoverable error, not a panic or a silent partial load.
        let dir = std::env::temp_dir().join("secureloop-cache-v2");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        fs::write(
            &path,
            r#"{"version": 2, "kind": "candidate-cache", "entries": [
                {"key": "L[...]X[pool:deadbeef,pj:0]|cfg[s64,k5,seed1,mr]",
                 "tier": "sampled", "valid_samples": 1, "total_samples": 1,
                 "mappings": []}
            ]}"#,
        )
        .unwrap();
        let err = artifact::load::<CandidateCache>(&path).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Corrupt { .. })
                && err
                    .to_string()
                    .contains("unsupported cache version 2 (expected 3)"),
            "got: {err}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn schemes_never_share_an_entry() {
        use secureloop_crypto::{CryptoConfig, EngineClass, SchemeId};
        let cache = CandidateCache::new();
        let cfg = SearchConfig::quick();
        let base = CryptoConfig::new(EngineClass::Parallel, 3);
        let aes = Architecture::eyeriss_base().with_crypto(base.clone());
        let secu =
            Architecture::eyeriss_base().with_crypto(base.clone().with_scheme(SchemeId::Seculator));
        // The key structure itself must keep schemes apart...
        let ka = cache_key(&layer(), &aes, &cfg);
        let ks = cache_key(&layer(), &secu, &cfg);
        assert_ne!(ka, ks);
        assert!(ka.contains("sch:aes-gcm"), "aes key component: {ka}");
        assert!(
            ks.contains("sch:seculator"),
            "seculator key component: {ks}"
        );
        // ...and the runtime behaviour must follow: two entries, no
        // cross-scheme hit, same-scheme lookups still hit.
        search_cached(&layer(), &aes, &[], &cfg, Some(&cache)).unwrap();
        search_cached(&layer(), &secu, &[], &cfg, Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 0, "schemes must not alias");
        assert_eq!(cache.len(), 2);
        search_cached(&layer(), &aes, &[], &cfg, Some(&cache)).unwrap();
        search_cached(&layer(), &secu, &[], &cfg, Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 2, "same-scheme lookups still hit");
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let layers: Vec<ConvLayer> = zoo::alexnet_conv().layers().to_vec();
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();
        // Too small for AlexNet's five entries: each costs 256 + key +
        // 3 * size_of::<Mapping>() (296) bytes.
        let cache = CandidateCache::new().with_budget_bytes(6 * 1024);
        search_cached(&layers[0], &arch, &[], &cfg, Some(&cache)).unwrap();
        search_cached(&layers[1], &arch, &[], &cfg, Some(&cache)).unwrap();
        // Touch layer 0 so layer 1 is the LRU entry.
        search_cached(&layers[0], &arch, &[], &cfg, Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 1);
        // Keep inserting until something is evicted.
        for layer in &layers[2..] {
            search_cached(layer, &arch, &[], &cfg, Some(&cache)).unwrap();
        }
        assert!(cache.evictions() > 0, "budget must force evictions");
        assert!(
            cache.approx_bytes() <= 6 * 1024 || cache.len() == 1,
            "budget respected (modulo the keep-one rule): {} bytes",
            cache.approx_bytes()
        );
        // Re-searching an evicted key is a miss that recomputes the
        // identical result (checked in depth by the eviction proptest).
        let before = cache.misses();
        search_cached(&layers[1], &arch, &[], &cfg, Some(&cache)).unwrap();
        assert!(cache.misses() > before || cache.hits() > 1);
    }

    #[test]
    fn oversized_single_entry_still_serves() {
        let cache = CandidateCache::new().with_budget_bytes(1);
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();
        search_cached(&layer(), &arch, &[], &cfg, Some(&cache)).unwrap();
        assert_eq!(cache.len(), 1, "most recent entry always survives");
        search_cached(&layer(), &arch, &[], &cfg, Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = CandidateCache::new();
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();
        for layer in zoo::alexnet_conv().layers() {
            search_cached(layer, &arch, &[], &cfg, Some(&cache)).unwrap();
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), zoo::alexnet_conv().layers().len());
        assert!(cache.approx_bytes() > 0);
        assert_eq!(cache.budget_bytes(), None);
    }

    #[test]
    fn unparseable_mapping_drops_its_record_at_load() {
        let dir = std::env::temp_dir().join("secureloop-cache-unparseable");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let _ = fs::remove_file(path.with_extension("bak"));
        let layers: Vec<ConvLayer> = zoo::alexnet_conv().layers().to_vec();
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();
        let cold = CandidateCache::new();
        let first = search_cached(&layers[0], &arch, &[], &cfg, Some(&cold)).unwrap();
        let second = search_cached(&layers[1], &arch, &[], &cfg, Some(&cold)).unwrap();
        // Replace the first mapping of layer 1's record (its key field
        // comes first, its mappings last) with text that does not parse.
        let text = cold.to_json().pretty();
        let key = cache_key(&layers[1], &arch, &cfg);
        let start = text.find(&key).unwrap();
        let start = start + text[start..].find("\"dram[").unwrap() + 1;
        let end = start + text[start..].find('"').unwrap();
        let damaged = format!("{}not a mapping{}", &text[..start], &text[end..]);
        fs::write(&path, damaged).unwrap();

        let rec = artifact::load::<CandidateCache>(&path).unwrap();
        assert_eq!(
            rec.source,
            LoadSource::PrimarySalvaged,
            "strict load rejects"
        );
        assert!(
            rec.warnings[0].contains("unparseable mapping")
                && rec.warnings[0].contains("dropped 1 damaged"),
            "{:?}",
            rec.warnings
        );
        let warm = rec.value;
        assert_eq!(warm.len(), 1, "the bad record is dropped, the other kept");
        let hit = search_cached(&layers[0], &arch, &[], &cfg, Some(&warm)).unwrap();
        assert_bit_identical(&hit, &first, "intact record");
        let recomputed = search_cached(&layers[1], &arch, &[], &cfg, Some(&warm)).unwrap();
        assert_eq!((warm.hits(), warm.misses()), (1, 1));
        assert_bit_identical(&recomputed, &second, "dropped record");
        let _ = fs::remove_file(&path);
    }
}
