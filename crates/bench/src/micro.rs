//! Microbenchmarks of the hot kernels: AuthBlock counting and the
//! per-tensor optimiser, the mapper, AES-GCM, annealing and the
//! telemetry layer. Run alone, the entry only prints; `all` refreshes
//! `results/micro.csv`, which records the last such run on whatever
//! machine made it. Nothing gates on it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use secureloop::annealing::anneal_segment;
use secureloop::candidates::find_candidates;
use secureloop::dse::fig16_design_space;
use secureloop::segment::{evaluate_segment, OverheadCache, StrategyMode};
use secureloop::AnnealingConfig;
use secureloop_arch::Architecture;
use secureloop_authblock::count::{count_blocks, count_blocks_brute, count_blocks_rows};
use secureloop_authblock::{
    optimize, AccessPattern, AssignmentProblem, BlockAssignment, Orientation, Region, TileGrid,
    TileRect,
};
use secureloop_crypto::sim::{EngineSim, Request};
use secureloop_crypto::{Aes128, AesGcm, EngineClass};
use secureloop_loopnest::evaluate;
use secureloop_mapper::{
    search, search_cached, search_group, CandidateCache, GuidedSampler, MappingSampler,
    SearchConfig, SearchMode,
};
use secureloop_telemetry as telemetry;
use secureloop_workload::zoo;

use crate::{base_secure_arch, cells, Output, Table};

/// Untimed runs before each measurement.
const WARMUP: u32 = 2;
/// Timed runs; each case reports their mean.
const ITERS: u32 = 10;

/// Mean wall time of `body` over [`ITERS`] runs, after [`WARMUP`] runs.
fn mean_time<O>(mut body: impl FnMut() -> O) -> Duration {
    for _ in 0..WARMUP {
        black_box(body());
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        black_box(body());
    }
    start.elapsed() / ITERS
}

struct Micro(Table);

impl Micro {
    fn case<O>(&mut self, name: &str, body: impl FnMut() -> O) -> Duration {
        self.row(name, mean_time(body), String::new())
    }

    fn row(&mut self, name: &str, mean: Duration, detail: String) -> Duration {
        let us = format!("{:.3}", mean.as_secs_f64() * 1e6);
        self.0.push(cells![name, us, detail]);
        mean
    }
}

/// A 1000-sample single-threaded random search on AlexNet conv3.
fn search_1k() -> impl Fn() -> bool {
    let layer = zoo::alexnet_conv().layers()[2].clone();
    let arch = Architecture::eyeriss_base();
    let cfg = SearchConfig {
        samples: 1000,
        top_k: 6,
        seed: 9,
        threads: 1,
        deadline: None,
        mode: SearchMode::Random,
    };
    move || search(black_box(&layer), black_box(&arch), black_box(&cfg)).is_ok()
}

pub(crate) fn micro() -> Output {
    let mut m = Micro(Table::new("case,mean_us,detail"));
    authblock(&mut m);
    mapper(&mut m);
    aes_gcm(&mut m);
    annealing(&mut m);
    telemetry_overhead(&mut m);
    Output::new(m.0)
        .note(format!(
            "mean of {ITERS} runs after {WARMUP} warm-up runs; machine-dependent, not gated"
        ))
        .machine_dependent()
}

/// The §4.2 scalability claim: the closed-form congruence counter makes
/// the exhaustive AuthBlock search tractable where enumeration is not.
fn authblock(m: &mut Micro) {
    // A production-sized plane: 224x224 ifmap, 56x60 window tile.
    let region = Region::new(224, 224);
    let tile = TileRect::new(56, 112, 56, 60);
    let assign = BlockAssignment::new(Orientation::Horizontal, 37);
    let args = || (black_box(region), black_box(tile), black_box(assign));
    m.case("count_blocks/brute_force", || {
        let (r, t, a) = args();
        count_blocks_brute(r, t, a)
    });
    m.case("count_blocks/row_ranges", || {
        let (r, t, a) = args();
        count_blocks_rows(r, t, a)
    });
    m.case("count_blocks/congruence_closed_form", || {
        let (r, t, a) = args();
        count_blocks(r, t, a)
    });
    // The same tile deep inside a near-`u32::MAX` square: past the
    // native-width bound, so the counter runs at `i128`.
    let near = u64::from(u32::MAX) - 1;
    let wide = (
        Region::new(near, near),
        TileRect::new(near / 2, near / 2, 56, 60),
        assign,
    );
    m.case("count_blocks/closed_form_wide", || {
        let (r, t, a) = black_box(wide);
        count_blocks(r, t, a)
    });

    let region = Region::new(56, 56);
    let problem = AssignmentProblem {
        region,
        producer_grid: TileGrid::covering(region, 14, 28),
        producer_write_sweeps: 2,
        readers: vec![AccessPattern {
            grid: TileGrid::covering_with_halo(region, 16, 16, 14, 14),
            sweeps: 3,
        }],
        word_bits: 8,
        tag_bits: 64,
    };
    m.case("optimize_tensor_assignment", || {
        optimize(black_box(&problem))
    });
}

/// Mapper throughput: one loopnest evaluation, one candidate-cache hit,
/// one uniform and one guided sampler draw, and a whole single-layer
/// search (the step-1 cost).
fn mapper(m: &mut Micro) {
    let layer = zoo::resnet18().layers()[5].clone();
    let arch = Architecture::eyeriss_base();
    let mut sampler = MappingSampler::new(&layer, &arch, 42);
    // Four valid draws: the first is the evaluated mapping, all four
    // guide the guided sampler.
    let guides: Vec<_> = std::iter::repeat_with(|| sampler.sample())
        .filter(|candidate| evaluate(&layer, &arch, candidate).is_ok())
        .take(4)
        .collect();
    let mapping = &guides[0];
    m.case("loopnest_evaluate", || {
        evaluate(black_box(&layer), black_box(&arch), black_box(mapping))
    });
    // The first warm-up run fills the cache; each timed run is a hit,
    // which parses the entry's four mapping texts and re-prices each.
    let (cache, cfg) = (CandidateCache::new(), SearchConfig::quick().with_top_k(4));
    m.case("candidate_cache_hit/top4", || {
        search_cached(black_box(&layer), &arch, &[], &cfg, Some(&cache))
    });
    m.case("sampler_draw", || sampler.sample());
    let mut guided = GuidedSampler::new(&layer, &arch, 42, &guides);
    m.case("guided_sampler_draw", || guided.sample());
    m.case("mapper_search_1k_samples", search_1k());

    // The six Fig. 16 designs on the 14x12 PE array draw one random
    // stream: one group search against six single searches.
    let layer = zoo::alexnet_conv().layers()[2].clone();
    let designs = fig16_design_space();
    let siblings: Vec<&Architecture> = designs
        .iter()
        .filter(|a| (a.pe_x(), a.pe_y()) == (14, 12))
        .collect();
    let cfg = SearchConfig {
        samples: 1000,
        top_k: 6,
        seed: 9,
        threads: 1,
        deadline: None,
        mode: SearchMode::Random,
    };
    let alone = mean_time(|| {
        siblings
            .iter()
            .map(|arch| search(black_box(&layer), arch, black_box(&cfg)).is_ok())
            .collect::<Vec<_>>()
    });
    let group = mean_time(|| search_group(black_box(&layer), &siblings, black_box(&cfg)));
    let speedup = alone.as_secs_f64() / group.as_secs_f64();
    m.row(
        "mapper_group_search/6_siblings",
        group,
        format!(
            "{speedup:.2}x vs 6 single searches ({:.3} us)",
            alone.as_secs_f64() * 1e6
        ),
    );
}

/// Software AES-GCM of the functional substrate (a sanity scale for the
/// engine simulator, not a competitor to hardware) and the simulator.
fn aes_gcm(m: &mut Micro) {
    let aes = Aes128::new(&[7u8; 16]);
    let block = [0x5au8; 16];
    m.case("aes128_block", || aes.encrypt(black_box(&block)));

    let gcm = AesGcm::new(&[7u8; 16]);
    let iv = [1u8; 12];
    for size in [64usize, 1024, 16384] {
        let data = vec![0xa5u8; size];
        let mean = mean_time(|| gcm.encrypt(black_box(&iv), black_box(&data), b""));
        let mib_s = size as f64 / mean.as_secs_f64() / (1024.0 * 1024.0);
        m.row(
            &format!("aes_gcm_encrypt/{size}B"),
            mean,
            format!("{mib_s:.1} MiB/s"),
        );
    }

    let sim = EngineSim::new(EngineClass::Parallel.engine(), 3);
    let trace: Vec<Request> = (0..3)
        .map(|stream| Request {
            stream,
            arrival: 0,
            bytes: 1000 * 16,
        })
        .collect();
    m.case("engine_sim_3000_blocks", || sim.run(black_box(&trace)));
}

/// Cross-layer fine-tuning on the AlexNet conv3–conv5 segment: one
/// cached segment evaluation (the inner loop of Algorithm 1) and a
/// whole 100-iteration annealing run.
fn annealing(m: &mut Micro) {
    let net = zoo::alexnet_conv();
    let arch = base_secure_arch();
    let cfg = SearchConfig {
        samples: 1500,
        top_k: 6,
        seed: 2,
        threads: 1,
        deadline: None,
        mode: SearchMode::Random,
    };
    let cands = find_candidates(&net, &arch, &cfg);
    let segs = net.segments();
    let seg = &segs[2].layers;
    let choices: Vec<_> = seg
        .iter()
        .map(|&li| cands.per_layer[li].best().expect("has candidates").clone())
        .collect();
    // The warm-up runs fill the cache, so this times the steady state.
    let cache = OverheadCache::new();
    m.case("segment_eval_cached", || {
        evaluate_segment(
            black_box(&net),
            &arch,
            seg,
            &choices,
            StrategyMode::Optimal,
            &cache,
        )
    });
    let annealing = AnnealingConfig::paper_default().with_iterations(100);
    m.case("anneal_segment_100_iters", || {
        anneal_segment(
            black_box(&net),
            &arch,
            seg,
            &cands,
            &annealing,
            &OverheadCache::new(),
        )
    });
}

/// Cost of telemetry on the mapper's hot path: the same search with
/// telemetry on (no sink, the default) and off (`set_enabled(false)`
/// short-circuits every counter and span), in interleaved rounds so
/// thermal drift hits both sides. With no sink the spans are inert, so
/// the "on" side measures the counters only. The budget is 5%, but it
/// is reported, not gated: six runs on one machine read −4.9% to
/// +6.7%, so a hard gate at 5% would flake.
fn telemetry_overhead(m: &mut Micro) {
    let search = search_1k();
    let time_one = |enabled: bool| {
        telemetry::set_enabled(enabled);
        let start = Instant::now();
        black_box(search());
        start.elapsed()
    };
    for on in [true, false, true, false] {
        time_one(on);
    }
    let (mut on, mut off) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..ITERS {
        on += time_one(true);
        off += time_one(false);
    }
    telemetry::set_enabled(true);
    let overhead = (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
    m.row(
        "mapper_search_1k_telemetry_on_vs_off",
        on / ITERS,
        format!(
            "{overhead:+.2}% vs off ({:.3} us); budget 5%",
            (off / ITERS).as_secs_f64() * 1e6
        ),
    );
}
