//! Pareto-front bookkeeping for guided search.
//!
//! Guided mode (see the crate docs) maintains, per search space, the
//! set of mutually non-dominated mappings over three objectives:
//! latency (cycles), total energy (pJ) and crypto overhead (the crypto
//! engine's share of the energy, pJ). New samples are generated in the
//! neighbourhood of front members, so the front doubles as the search's
//! working memory. The structure is deliberately *set-like*: insertion
//! is idempotent, the surviving point set is independent of insertion
//! order, and no retained point dominates another — properties pinned
//! by `tests/proptest_pareto.rs` against a brute-force oracle.

use secureloop_loopnest::{Evaluation, Mapping};

/// One mapping's position in objective space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Latency in cycles.
    pub latency_cycles: u64,
    /// Total energy in pJ.
    pub energy_pj: f64,
    /// Crypto-overhead share of the energy in pJ (0 for unsecure
    /// designs, where the front degenerates to two objectives).
    pub crypto_pj: f64,
}

impl ParetoPoint {
    /// Project an evaluation onto the guided-search objectives.
    pub fn of(eval: &Evaluation) -> Self {
        ParetoPoint {
            latency_cycles: eval.latency_cycles,
            energy_pj: eval.energy_pj,
            crypto_pj: eval.energy.crypto_pj,
        }
    }

    /// Whether every objective is a finite number (NaN/∞ would make
    /// dominance comparisons vacuous).
    pub fn is_finite(&self) -> bool {
        self.energy_pj.is_finite() && self.crypto_pj.is_finite()
    }

    /// Canonical sort key: ascending latency, ties broken by energy
    /// then crypto overhead (IEEE total order, so the order is exact).
    fn sort_key(&self) -> (u64, u64, u64) {
        (
            self.latency_cycles,
            self.energy_pj.to_bits(),
            self.crypto_pj.to_bits(),
        )
    }
}

/// Strict Pareto dominance: `a` is no worse than `b` in every
/// objective and strictly better in at least one. For finite points
/// this is a strict partial order (irreflexive, asymmetric,
/// transitive) — pinned by `tests/proptest_pareto.rs`. Comparisons
/// involving NaN are `false` in both directions; [`ParetoFront`]
/// rejects non-finite points at insertion instead.
pub fn dominates(a: &ParetoPoint, b: &ParetoPoint) -> bool {
    let no_worse = a.latency_cycles <= b.latency_cycles
        && a.energy_pj <= b.energy_pj
        && a.crypto_pj <= b.crypto_pj;
    let better = a.latency_cycles < b.latency_cycles
        || a.energy_pj < b.energy_pj
        || a.crypto_pj < b.crypto_pj;
    no_worse && better
}

/// Why (or whether) a point entered a [`ParetoFront`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontInsert {
    /// Entered the front (dominated members were pruned).
    Added,
    /// An existing member dominates it.
    Dominated,
    /// A member with exactly these objectives is already present
    /// (insertion is idempotent).
    Duplicate,
    /// NaN or infinite objective: never retained.
    NonFinite,
}

/// The set of mutually non-dominated `(point, mapping)` pairs seen so
/// far, kept in canonical order (ascending latency, then energy, then
/// crypto). The *point set* is a pure function of the set of points
/// ever inserted — insertion order only decides which mapping
/// represents a duplicated point (first writer wins), and guided
/// search inserts in deterministic chunk order, so fronts are
/// byte-reproducible.
#[derive(Debug, Clone, Default)]
pub struct ParetoFront {
    entries: Vec<(ParetoPoint, Mapping)>,
}

impl ParetoFront {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Insert one `(mapping, point)` pair, pruning every member the
    /// new point dominates. Dominated, duplicate and non-finite points
    /// are rejected; pruning removes *only* newly-dominated members,
    /// never a still-non-dominated one.
    pub fn insert(&mut self, mapping: Mapping, point: ParetoPoint) -> FrontInsert {
        if !point.is_finite() {
            return FrontInsert::NonFinite;
        }
        if self.entries.iter().any(|(p, _)| p == &point) {
            return FrontInsert::Duplicate;
        }
        if self.entries.iter().any(|(p, _)| dominates(p, &point)) {
            return FrontInsert::Dominated;
        }
        self.entries.retain(|(p, _)| !dominates(&point, p));
        let pos = self
            .entries
            .iter()
            .position(|(p, _)| p.sort_key() > point.sort_key())
            .unwrap_or(self.entries.len());
        self.entries.insert(pos, (point, mapping));
        FrontInsert::Added
    }

    /// The retained points in canonical order.
    pub fn points(&self) -> Vec<ParetoPoint> {
        self.entries.iter().map(|(p, _)| *p).collect()
    }

    /// The retained `(point, mapping)` pairs in canonical order.
    pub fn entries(&self) -> &[(ParetoPoint, Mapping)] {
        &self.entries
    }

    /// Number of front members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Up to `cap` representative mappings spread evenly across the
    /// front (in canonical order), used to seed neighbourhood
    /// sampling. Deterministic for a given front.
    pub fn guides(&self, cap: usize) -> Vec<Mapping> {
        let n = self.entries.len();
        if n == 0 || cap == 0 {
            return Vec::new();
        }
        if n <= cap {
            return self.entries.iter().map(|(_, m)| m.clone()).collect();
        }
        (0..cap)
            .map(|i| self.entries[i * n / cap].1.clone())
            .collect()
    }

    /// Hypervolume the front dominates w.r.t. `reference` (an upper
    /// corner all members must be ≤ in every objective; members beyond
    /// it contribute nothing). Larger is better; the value lets two
    /// fronts over the same reference be compared as scalars.
    pub fn hypervolume(&self, reference: &ParetoPoint) -> f64 {
        hypervolume(&self.points(), reference)
    }
}

/// Exact 3-objective hypervolume of an arbitrary point set against an
/// upper-corner `reference`: integrate the 2D (energy × crypto)
/// dominated area over latency slabs. Dominated or duplicate points
/// change nothing, so callers may pass raw point sets.
pub fn hypervolume(points: &[ParetoPoint], reference: &ParetoPoint) -> f64 {
    let mut pts: Vec<&ParetoPoint> = points
        .iter()
        .filter(|p| {
            p.is_finite()
                && p.latency_cycles < reference.latency_cycles
                && p.energy_pj < reference.energy_pj
                && p.crypto_pj < reference.crypto_pj
        })
        .collect();
    pts.sort_by_key(|p| p.sort_key());
    if pts.is_empty() {
        return 0.0;
    }
    // Integrate over latency: between two consecutive distinct latency
    // values the active set is every point at or below the slab floor.
    let mut latencies: Vec<u64> = pts.iter().map(|p| p.latency_cycles).collect();
    latencies.dedup();
    let mut total = 0.0;
    for (i, &slab_floor) in latencies.iter().enumerate() {
        let slab_ceil = latencies
            .get(i + 1)
            .copied()
            .unwrap_or(reference.latency_cycles);
        let height = (slab_ceil - slab_floor) as f64;
        let active: Vec<(f64, f64)> = pts
            .iter()
            .filter(|p| p.latency_cycles <= slab_floor)
            .map(|p| (p.energy_pj, p.crypto_pj))
            .collect();
        total += height * staircase_area(&active, reference.energy_pj, reference.crypto_pj);
    }
    total
}

/// 2D dominated area of `(energy, crypto)` points w.r.t. an upper
/// corner: the classic staircase sum over the 2D-non-dominated subset.
fn staircase_area(points: &[(f64, f64)], ref_e: f64, ref_c: f64) -> f64 {
    let mut pts: Vec<(f64, f64)> = points.to_vec();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut area = 0.0;
    let mut best_c = ref_c;
    for (e, c) in pts {
        if c < best_c {
            area += (ref_e - e) * (best_c - c);
            best_c = c;
        }
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_arch::Architecture;
    use secureloop_workload::zoo;

    fn pt(l: u64, e: f64, c: f64) -> ParetoPoint {
        ParetoPoint {
            latency_cycles: l,
            energy_pj: e,
            crypto_pj: c,
        }
    }

    fn any_mapping() -> Mapping {
        let net = zoo::alexnet_conv();
        let arch = Architecture::eyeriss_base();
        let mut s = crate::MappingSampler::new(&net.layers()[0], &arch, 1);
        s.sample()
    }

    #[test]
    fn dominance_is_strict() {
        let a = pt(10, 5.0, 1.0);
        let b = pt(20, 5.0, 1.0);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &a), "irreflexive");
        let c = pt(5, 9.0, 1.0);
        assert!(!dominates(&a, &c));
        assert!(!dominates(&c, &a), "incomparable pair");
    }

    #[test]
    fn front_prunes_dominated_members() {
        let m = any_mapping();
        let mut f = ParetoFront::new();
        assert_eq!(f.insert(m.clone(), pt(20, 8.0, 2.0)), FrontInsert::Added);
        assert_eq!(f.insert(m.clone(), pt(10, 9.0, 2.0)), FrontInsert::Added);
        assert_eq!(f.len(), 2, "incomparable points coexist");
        // Dominates both: the front collapses to it.
        assert_eq!(f.insert(m.clone(), pt(10, 8.0, 1.0)), FrontInsert::Added);
        assert_eq!(f.points(), vec![pt(10, 8.0, 1.0)]);
        // Dominated and duplicate points are rejected.
        assert_eq!(
            f.insert(m.clone(), pt(11, 8.0, 1.0)),
            FrontInsert::Dominated
        );
        assert_eq!(
            f.insert(m.clone(), pt(10, 8.0, 1.0)),
            FrontInsert::Duplicate
        );
        assert_eq!(f.insert(m, pt(1, f64::NAN, 0.0)), FrontInsert::NonFinite);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn guides_are_spread_and_capped() {
        let m = any_mapping();
        let mut f = ParetoFront::new();
        for i in 0..10u64 {
            f.insert(m.clone(), pt(100 - i, 1.0 + i as f64, 0.0));
        }
        assert_eq!(f.len(), 10);
        assert_eq!(f.guides(4).len(), 4);
        assert_eq!(f.guides(100).len(), 10);
        assert!(f.guides(0).is_empty());
    }

    #[test]
    fn hypervolume_grows_with_better_points() {
        let reference = pt(100, 100.0, 100.0);
        let base = vec![pt(50, 50.0, 50.0)];
        let hv_base = hypervolume(&base, &reference);
        assert!(hv_base > 0.0);
        // An incomparable extra point adds volume.
        let two = vec![pt(50, 50.0, 50.0), pt(80, 20.0, 50.0)];
        assert!(hypervolume(&two, &reference) > hv_base);
        // A dominating point adds volume vs its victim alone.
        let better = vec![pt(40, 40.0, 40.0)];
        assert!(hypervolume(&better, &reference) > hv_base);
        // Dominated/duplicate points change nothing.
        let with_dupes = vec![pt(50, 50.0, 50.0), pt(50, 50.0, 50.0), pt(60, 60.0, 60.0)];
        assert_eq!(hypervolume(&with_dupes, &reference), hv_base);
        // Points beyond the reference contribute nothing.
        assert_eq!(hypervolume(&[pt(200, 1.0, 1.0)], &reference), 0.0);
    }
}
