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
//! The cache round-trips to disk through
//! [`secureloop_artifact::Persistent`], like `SweepCheckpoint`, so
//! `--resume` runs start warm. On-disk entries store mappings in
//! compact text form; a *frozen* entry is thawed on first hit by
//! re-evaluating its mappings against the hitting layer and
//! architecture — cheap (top-k evaluations, not a search) and
//! self-validating: anything that fails to parse or evaluate demotes
//! the entry to a miss instead of poisoning the sweep.
//!
//! Lookups are bypassed — never consulted, never populated — when the
//! search carries a wall-clock deadline (truncated results are
//! non-deterministic) or a fault plan is armed (fault injection keys on
//! layer *names*, which the canonical key deliberately omits).

use std::collections::{HashMap, HashSet};
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
    cancel, fault, search, search_group, MapperError, MapperResult, SearchConfig, SearchMode,
    SearchTier,
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

/// Approximate heap cost charged per cached candidate mapping (the
/// mapping itself plus its evaluation). The budget accounting is an
/// estimate — it bounds growth, it does not audit the allocator.
const PER_CANDIDATE_BYTES: usize = 512;

/// Fixed approximate overhead charged per cache entry (key, hash-map
/// slot, bookkeeping).
const PER_ENTRY_BYTES: usize = 256;

/// A candidate list restored from disk, not yet re-evaluated.
#[derive(Debug, Clone)]
struct FrozenEntry {
    mappings: Vec<String>,
    tier: SearchTier,
    valid_samples: usize,
    total_samples: usize,
}

#[derive(Debug, Clone)]
enum Entry {
    Ready(MapperResult),
    Frozen(FrozenEntry),
}

fn tier_from_name(name: &str) -> Option<SearchTier> {
    match name {
        "exhaustive" => Some(SearchTier::Exhaustive),
        "sampled" => Some(SearchTier::Sampled),
        "greedy" => Some(SearchTier::Greedy),
        _ => None,
    }
}

impl Entry {
    /// Approximate heap footprint of this entry (plus its key), used
    /// for the eviction budget.
    fn cost(&self, key: &str) -> usize {
        let candidates = match self {
            Entry::Ready(r) => r.candidates.len(),
            Entry::Frozen(f) => f.mappings.len(),
        };
        PER_ENTRY_BYTES + key.len() + candidates * PER_CANDIDATE_BYTES
    }
}

/// One stored entry plus its LRU bookkeeping.
#[derive(Debug)]
struct Stored {
    entry: Entry,
    /// Logical timestamp of the last hit (or the insert); smallest is
    /// evicted first.
    last_used: u64,
    /// Approximate bytes charged against the budget.
    cost: usize,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Stored>,
    /// Monotonic logical clock driving the LRU order.
    clock: u64,
    /// Sum of every stored entry's `cost`.
    bytes: usize,
    /// Keys a running group search will insert; a requester of one
    /// waits for it instead of searching again.
    in_flight: HashSet<String>,
}

impl Inner {
    fn touch(&mut self, key: &str) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(s) = self.map.get_mut(key) {
            s.last_used = clock;
        }
    }

    fn remove(&mut self, key: &str) -> Option<Stored> {
        let removed = self.map.remove(key)?;
        self.bytes -= removed.cost;
        Some(removed)
    }

    /// Look up a search outcome, thawing a frozen entry against the
    /// hitting (layer, arch) — key equality makes the re-evaluation
    /// exact. Returns `None` (a miss) when absent or when a frozen
    /// entry fails to thaw. A hit refreshes the entry's LRU position.
    fn lookup(
        &mut self,
        key: &str,
        layer: &ConvLayer,
        arch: &Architecture,
    ) -> Option<MapperResult> {
        let frozen = match &self.map.get(key)?.entry {
            Entry::Ready(r) => {
                let hit = r.clone();
                self.touch(key);
                return Some(hit);
            }
            Entry::Frozen(f) => f.clone(),
        };
        let mut candidates: Vec<(Mapping, _)> = Vec::with_capacity(frozen.mappings.len());
        for text in &frozen.mappings {
            let mapping: Mapping = match text.parse() {
                Ok(m) => m,
                Err(_) => {
                    self.remove(key);
                    return None;
                }
            };
            match evaluate(layer, arch, &mapping) {
                Ok(eval) => candidates.push((mapping, eval)),
                Err(_) => {
                    self.remove(key);
                    return None;
                }
            }
        }
        if candidates.is_empty() {
            self.remove(key);
            return None;
        }
        let result = MapperResult {
            candidates,
            valid_samples: frozen.valid_samples,
            total_samples: frozen.total_samples,
            tier: frozen.tier,
            truncated: false,
        };
        self.insert(key.to_string(), Entry::Ready(result.clone()));
        Some(result)
    }

    fn insert(&mut self, key: String, entry: Entry) {
        let cost = entry.cost(&key);
        self.clock += 1;
        if let Some(old) = self.map.insert(
            key,
            Stored {
                entry,
                last_used: self.clock,
                cost,
            },
        ) {
            self.bytes -= old.cost;
        }
        self.bytes += cost;
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

    /// Bound the cache's approximate footprint. Once the budget is
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

    /// Approximate bytes currently charged against the budget.
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
        let ctx = cancel::current_context();
        let mut inner = self.inner.lock().expect("cache lock");
        while inner.in_flight.contains(key) {
            if cancel::cancelled(&ctx) {
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
        inner.insert(key, Entry::Ready(result.clone()));
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
/// text form. Loaded entries come back frozen and thaw lazily on first
/// hit. Only the current version loads: an older file's keys could
/// alias candidates across search modes or protection schemes.
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
        let entries = &inner.map;
        let mut keys: Vec<&String> = entries.keys().collect();
        keys.sort();
        keys.into_iter()
            .map(|key| {
                let (mappings, tier, valid, total) = match &entries[key].entry {
                    Entry::Ready(r) => (
                        r.candidates
                            .iter()
                            .map(|(m, _)| Json::from(CompactMapping(m).to_string().as_str()))
                            .collect::<Vec<_>>(),
                        r.tier,
                        r.valid_samples,
                        r.total_samples,
                    ),
                    Entry::Frozen(f) => (
                        f.mappings.iter().map(|m| Json::from(m.as_str())).collect(),
                        f.tier,
                        f.valid_samples,
                        f.total_samples,
                    ),
                };
                Json::obj()
                    .field("key", key.as_str())
                    .field("tier", tier.name())
                    .field("valid_samples", valid as u64)
                    .field("total_samples", total as u64)
                    .field("mappings", Json::Arr(mappings))
            })
            .collect()
    }

    fn read_record(&mut self, _: &str, record: &Json) -> Result<(), String> {
        let (key, frozen) = entry_from_json(record)?;
        let inner = self.inner.get_mut().expect("cache lock");
        inner.insert(key, Entry::Frozen(frozen));
        Ok(())
    }
}

/// Parse one on-disk cache entry into its key and frozen form.
fn entry_from_json(e: &Json) -> Result<(String, FrozenEntry), String> {
    let key = e["key"]
        .as_str()
        .ok_or_else(|| "missing or invalid field 'key'".to_string())?
        .to_string();
    let tier = e["tier"]
        .as_str()
        .and_then(tier_from_name)
        .ok_or_else(|| "missing or invalid field 'tier'".to_string())?;
    let valid_samples = e["valid_samples"]
        .as_usize()
        .ok_or_else(|| "missing or invalid field 'valid_samples'".to_string())?;
    let total_samples = e["total_samples"]
        .as_usize()
        .ok_or_else(|| "missing or invalid field 'total_samples'".to_string())?;
    let mappings = e["mappings"]
        .as_array()
        .ok_or_else(|| "missing or invalid field 'mappings'".to_string())?
        .iter()
        .map(|m| {
            m.as_str()
                .map(str::to_string)
                .ok_or_else(|| "missing or invalid field 'mappings'".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        key,
        FrozenEntry {
            mappings,
            tier,
            valid_samples,
            total_samples,
        },
    ))
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
/// `cache` is `None`, when the config carries a deadline, or when a
/// fault plan is armed — all three would break the "key determines the
/// outcome" contract.
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
    // Deadline-truncated results are not reusable, armed fault plans
    // key on layer names a shared cache would conflate, and a task
    // retrying after a panic/timeout must not consult (or populate)
    // shared state its previous attempt may have been corrupting.
    let cache = match cache {
        Some(c) if cfg.deadline.is_none() && !fault::armed() && !cancel::cache_bypassed() => c,
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
        let _quiet = fault::exclusive();
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
        let _quiet = fault::exclusive();
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
        let _quiet = fault::exclusive();
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
        let _quiet = fault::exclusive();
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

    #[test]
    fn a_random_miss_fills_the_entries_of_siblings_sharing_its_draws() {
        let _quiet = fault::exclusive();
        let arch = Architecture::eyeriss_base();
        let siblings = [
            arch.clone().with_glb_kb(16),
            arch.clone().with_pe_array(14, 24),
        ];
        let random = SearchConfig::quick();
        let cache = CandidateCache::new();
        let own = search_cached(&layer(), &arch, &siblings, &random, Some(&cache)).unwrap();
        // The 16 kB sibling shares the 14x12 array; the 14x24 one does not.
        assert_eq!((cache.misses(), cache.len()), (1, 2));
        let sibling = search_cached(&layer(), &siblings[0], &[], &random, Some(&cache)).unwrap();
        assert_eq!(
            cache.hits(),
            1,
            "the group search filled the sibling's entry"
        );
        assert_eq!(
            format!("{sibling:?}"),
            format!("{:?}", search(&layer(), &siblings[0], &random).unwrap())
        );
        assert_eq!(
            format!("{own:?}"),
            format!("{:?}", search(&layer(), &arch, &random).unwrap())
        );
        // Guided search anchors on per-design discoveries: no group.
        let guided = SearchConfig::quick().with_mode(crate::SearchMode::Guided);
        let cache = CandidateCache::new();
        search_cached(&layer(), &arch, &siblings, &guided, Some(&cache)).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_request_for_a_claimed_key_waits_for_the_claim() {
        let _quiet = fault::exclusive();
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
                token: Some(token),
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
    }

    #[test]
    fn disk_round_trip_thaws_to_identical_results() {
        let _quiet = fault::exclusive();
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
        let _quiet = fault::exclusive();
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
        let _quiet = fault::exclusive();
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
        let _quiet = fault::exclusive();
        let layers: Vec<ConvLayer> = zoo::alexnet_conv().layers().to_vec();
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();
        // Room for roughly two entries: each costs ~256 + key + k*512.
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
        let _quiet = fault::exclusive();
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
        let _quiet = fault::exclusive();
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
    fn unparseable_frozen_mapping_demotes_to_a_miss() {
        let v = Json::parse(
            r#"{"version": 3, "kind": "candidate-cache", "entries": [
                {"key": "k", "tier": "sampled", "valid_samples": 1,
                 "total_samples": 1, "mappings": ["not a mapping"]}
            ]}"#,
        )
        .unwrap();
        let cache = CandidateCache::from_json(&v).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache
            .inner
            .lock()
            .unwrap()
            .lookup("k", &layer(), &Architecture::eyeriss_base())
            .is_none());
        assert_eq!(cache.len(), 0, "bad entry must be evicted");
    }
}
