//! The paper's own tables and figures (§5), plus the artifact's
//! `run_all` workflow.

use secureloop::dse::{
    dram_configs, evaluate_designs, fig13_engine_configs, fig16_design_space, pareto_front,
    FIG14_PE_ARRAYS, FIG15_GLB_KB,
};
use secureloop::report;
use secureloop::roofline::{schedule_point, RooflineModel};
use secureloop::{Algorithm, Scheduler};
use secureloop_arch::Architecture;
use secureloop_authblock::{count::count_blocks, BlockAssignment, Orientation, Region, TileRect};
use secureloop_crypto::survey::{pareto_front as survey_front, FIG3_SURVEY};
use secureloop_crypto::{CryptoConfig, EngineClass};
use secureloop_energy::AreaModel;
use secureloop_workload::zoo;

use crate::plot::{Plot, Series};
use crate::{
    base_secure_arch, cells, paper_annealing, paper_scheduler, paper_search, workloads, Output,
    Table,
};

/// The three algorithms of Table 1 plus the unsecure baseline.
const ALL_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Unsecure,
    Algorithm::CryptTileSingle,
    Algorithm::CryptOptSingle,
    Algorithm::CryptOptCross,
];

/// Published AES implementations: area (kGates) vs average cycles per
/// 128-bit block, log-log, with the Pareto front.
pub(crate) fn fig03() -> Output {
    let front = survey_front(&FIG3_SURVEY);
    let mut points: Vec<_> = FIG3_SURVEY.to_vec();
    points.sort_by(|a, b| a.area_kgates.partial_cmp(&b.area_kgates).unwrap());
    let mut table = Table::new("design,year,area_kgates,cycles_per_block,pareto");
    for p in &points {
        let on_front = front.iter().any(|f| f.name == p.name);
        table.push(cells![
            p.name,
            p.year,
            p.area_kgates,
            p.cycles_per_block,
            on_front
        ]);
    }
    let cycles = points.iter().map(|p| p.cycles_per_block);
    let (max_cycles, min_cycles) = (
        cycles.clone().fold(0.0f64, f64::max),
        cycles.fold(f64::INFINITY, f64::min),
    );

    let mut plot = Plot::new(
        "Fig. 3: AES implementations, area vs cycles/block",
        "area (kGates)",
        "avg cycles per 128-bit block",
    )
    .with_log_x()
    .with_log_y();
    let xy = |p: &secureloop_crypto::survey::AesDesignPoint| (p.area_kgates, p.cycles_per_block);
    plot.push(Series::scatter(
        "published designs",
        points.iter().map(xy).collect(),
    ));
    plot.push(Series::scatter(
        "pareto front",
        front.iter().map(xy).collect(),
    ));
    Output::new(table)
        .note(format!(
            "trend: ~{:.0}x area buys ~{:.0}x fewer cycles per block",
            points.last().unwrap().area_kgates / points[0].area_kgates,
            max_cycles / min_cycles
        ))
        .file("fig03.svg", plot.to_svg())
}

/// Specifications of the AES and Galois-field multiplier stages behind
/// the three AES-GCM engine design points.
pub(crate) fn table2() -> Output {
    let mut table =
        Table::new("arch,aes_cycles,aes_kgates,aes_pj,gf_cycles,gf_kgates,gf_pj,bytes_per_cycle");
    for class in EngineClass::ALL {
        let (aes, gf) = (class.aes(), class.gf_mult());
        table.push(cells![
            class.name(),
            aes.cycles_per_block,
            aes.area_kgates,
            aes.energy_pj,
            gf.cycles_per_block,
            gf.area_kgates,
            gf.energy_pj,
            class.engine().bytes_per_cycle()
        ]);
    }
    Output::new(table).note(format!(
        "3x pipelined engines (one per datatype) = {:.1} kGates (paper: 416.7, ~35% of Eyeriss logic)",
        3.0 * EngineClass::Pipelined.engine().area_kgates()
    ))
}

/// Off-chip traffic for the misaligned tile of the §4.2 worked example
/// (h = 30, wᵢ = 30, wⱼ = 20) as a function of AuthBlock orientation
/// and size. Hash traffic falls as 1/size; horizontal redundancy grows
/// with local valleys (best at u = 10); vertical redundancy is exactly
/// zero whenever the size divides h × (wᵢ − wⱼ) = 300, the optimum.
pub(crate) fn fig09() -> Output {
    let region = Region::new(30, 30);
    // The misaligned consumer tile: 30 rows x 20 columns, offset by 10.
    let tile = TileRect::new(0, 10, 30, 20);
    let data_bits = tile.elems() * 8;

    let mut table = Table::new("orientation,u,blocks,redundant_bits,tag_bits,total_bits");
    let mut best: Option<(String, u64)> = None;
    let mut svgs = Vec::new();
    for orientation in Orientation::ALL {
        let max_u = match orientation {
            Orientation::Horizontal => 30,
            Orientation::Vertical => 900,
        };
        let (mut red_pts, mut tag_pts, mut tot_pts) = (Vec::new(), Vec::new(), Vec::new());
        for u in 1..=max_u {
            let c = count_blocks(region, tile, BlockAssignment::new(orientation, u));
            let redundant = c.redundant_elems(tile) * 8;
            let tag = c.blocks * 64;
            let total = data_bits + redundant + tag;
            table.push(cells![orientation, u, c.blocks, redundant, tag, total]);
            if best.as_ref().is_none_or(|(_, t)| total < *t) {
                best = Some((format!("{orientation} u={u}"), total));
            }
            red_pts.push((u as f64, redundant as f64));
            tag_pts.push((u as f64, tag as f64));
            tot_pts.push((u as f64, total as f64));
        }
        let mut plot = Plot::new(
            format!("Fig. 9 ({orientation}): off-chip traffic vs AuthBlock size"),
            "AuthBlock size (# elements)",
            "off-chip traffic (bits)",
        );
        plot.push(Series::line("redundant", red_pts));
        plot.push(Series::line("tag", tag_pts));
        plot.push(Series::line("total", tot_pts));
        svgs.push((format!("fig09_{orientation}.svg"), plot.to_svg()));
    }
    let (label, total) = best.expect("sweep is nonempty");
    let mut out = Output::new(table)
        .note(format!(
            "optimal assignment: {label} with {total} total bits"
        ))
        .note("paper: horizontal valley at u=10, vertical optimum at u=300");
    out.files = svgs;
    out
}

/// Speedup from simulated annealing as a function of the neighbourhood
/// size k, for 1000 and 5000 iterations, on MobileNetV2 with the base
/// secure configuration. The paper: k = 2 already buys several percent,
/// the curve saturates around k = 6, more iterations help modestly.
pub(crate) fn fig10() -> Output {
    let net = zoo::mobilenet_v2();
    let arch = base_secure_arch();
    let search = {
        let mut s = paper_search();
        s.top_k = 10; // retain enough candidates for the k sweep
        s
    };
    let annealed = |annealing| {
        Scheduler::new(arch.clone())
            .with_search(search)
            .with_annealing(annealing)
    };

    // Step-1 candidates are shared across the whole sweep.
    let candidates = Scheduler::new(arch.clone())
        .with_search(search)
        .candidates(&net, Algorithm::CryptOptCross);
    // k = 1 is the no-fine-tuning baseline (best per layer).
    let baseline = annealed(paper_annealing().with_k(1))
        .schedule_with_candidates(&net, Algorithm::CryptOptCross, &candidates)
        .expect("schedule")
        .total_latency_cycles;

    let mut table = Table::new("k,speedup_pct_1000,speedup_pct_5000");
    for k in 1..=10usize {
        let speedup = |iters| {
            let s = annealed(paper_annealing().with_k(k).with_iterations(iters))
                .schedule_with_candidates(&net, Algorithm::CryptOptCross, &candidates)
                .expect("schedule");
            (baseline as f64 / s.total_latency_cycles as f64 - 1.0) * 100.0
        };
        let (s1000, s5000) = (speedup(1000), speedup(5000));
        table.push(cells![k, format!("{s1000:.3}"), format!("{s5000:.3}")]);
    }
    Output::new(table)
        .note(format!(
            "MobileNetV2, base secure arch; k=1 latency = {baseline} cycles"
        ))
        .note("paper: ~5% at k=2, saturating near k=6 (its operating point)")
}

/// Effect of the scheduling algorithm on latency (normalised to the
/// unsecure baseline) and on the additional off-chip traffic (hash,
/// redundant and rehash reads). Every scheduler step improves or keeps
/// both; MobileNetV2 benefits most; Crypt-Tile-Single pays rehash
/// traffic that the optimal assignment eliminates.
pub(crate) fn fig11() -> Output {
    let arch = base_secure_arch();
    let mut table = Table::new("workload,algorithm,latency_cycles,normalized_latency,edp_rel,hash_mbit,redundant_mbit,rehash_mbit");
    let mut baselines = Vec::new();
    for net in workloads() {
        let scheduler = paper_scheduler(arch.clone());
        let unsecure = scheduler
            .schedule(&net, Algorithm::Unsecure)
            .expect("schedule");
        baselines.push(format!(
            "{} unsecure baseline: {} cycles, EDP {:.3e}",
            net.name(),
            unsecure.total_latency_cycles,
            unsecure.edp()
        ));
        for algo in Algorithm::SECURE {
            let s = scheduler.schedule(&net, algo).expect("schedule");
            let mbit = |bits: u64| format!("{:.3}", bits as f64 / 1e6);
            table.push(cells![
                net.name(),
                algo.name(),
                s.total_latency_cycles,
                format!(
                    "{:.4}",
                    s.total_latency_cycles as f64 / unsecure.total_latency_cycles as f64
                ),
                format!("{:.4}", s.edp() / unsecure.edp()),
                mbit(s.overhead.hash_bits),
                mbit(s.overhead.redundant_bits),
                mbit(s.overhead.rehash_bits),
            ]);
        }
    }
    let mut out = Output::new(table)
        .note("Table 1 — scheduling algorithms:")
        .note("  Crypt-Tile-Single : crypt-aware mapper, tile-as-an-AuthBlock, no cross-layer")
        .note("  Crypt-Opt-Single  : + optimal AuthBlock assignment")
        .note("  Crypt-Opt-Cross   : + simulated-annealing cross-layer fine-tuning")
        .note(format!("architecture: {}", arch.summary()));
    out.notes.extend(baselines);
    out.note("paper Fig 11a (normalised latency): AlexNet 1.44/1.40/1.39,")
        .note("ResNet18 2.37/2.28/2.25, MobileNetV2 14.77/10.35/9.86")
}

/// Roofline for secure accelerators: each workload and scheduling
/// algorithm against the compute roof, the DRAM slope and the
/// crypto-limited effective slope. Each SecureLoop step raises the
/// achieved computational intensity.
pub(crate) fn fig12() -> Output {
    let arch = base_secure_arch();
    let model = RooflineModel::of(&arch);
    // The paper's dotted line assumes a single engine for all traffic.
    let single = EngineClass::Parallel.engine().bytes_per_cycle() * arch.clock_mhz() * 1e6 / 1e9;
    let scheduler = paper_scheduler(arch.clone());

    let mut table = Table::new("workload,algorithm,intensity_flop_per_byte,gflops,bound");
    for net in workloads() {
        for algo in ALL_ALGORITHMS {
            let s = scheduler.schedule(&net, algo).expect("schedule");
            let p = schedule_point(&s, &arch);
            let bound = if p.intensity >= model.ridge_intensity() {
                "compute-bound"
            } else {
                "memory-bound"
            };
            table.push(cells![
                net.name(),
                algo.name(),
                format!("{:.4}", p.intensity),
                format!("{:.4}", p.gflops),
                bound
            ]);
        }
    }
    Output::new(table)
        .note("machine lines (100 MHz):")
        .note(format!(
            "  compute roof       : {:.1} GFLOPS",
            model.peak_gflops
        ))
        .note(format!(
            "  DRAM slope         : {:.1} GB/s",
            model.dram_gbps
        ))
        .note(format!(
            "  effective slope    : {:.2} GB/s (min of DRAM and crypto engines)",
            model.effective_gbps
        ))
        .note(format!(
            "  single-engine slope: {single:.2} GB/s (the paper's dotted line)"
        ))
        .note("paper: unsecure points sit compute-bound; crypto throttling pushes secure")
        .note("points toward the memory-bound region; each scheduler step raises intensity.")
}

/// Slowdown and area overhead of the engine configurations (Parallel
/// ×1/×5/×10, Pipelined ×1/×2, Serial ×30) under Crypt-Opt-Cross.
/// 30 serial engines perform like 1 parallel engine at ~10x the area;
/// pipelined engines remove nearly all slowdown.
pub(crate) fn fig13() -> Output {
    let mut table = Table::new("workload,engines,latency_cycles,slowdown,area_overhead_pct");
    let mut baselines = Vec::new();
    for net in workloads() {
        let unsecure = paper_scheduler(Architecture::eyeriss_base())
            .schedule(&net, Algorithm::Unsecure)
            .expect("schedule")
            .total_latency_cycles;
        baselines.push(format!("{} unsecure: {unsecure} cycles", net.name()));
        for cfg in fig13_engine_configs() {
            let arch = Architecture::eyeriss_base().with_crypto(cfg.clone());
            let overhead = AreaModel::of(&arch).crypto_overhead_fraction() * 100.0;
            let s = paper_scheduler(arch)
                .schedule(&net, Algorithm::CryptOptCross)
                .expect("schedule");
            table.push(cells![
                net.name(),
                cfg.label(),
                s.total_latency_cycles,
                format!("{:.4}", s.total_latency_cycles as f64 / unsecure as f64),
                format!("{overhead:.2}")
            ]);
        }
    }
    let mut out = Output::new(table);
    out.notes = baselines;
    out.note("paper: Serial x30 ~ Parallel x1 performance at ~10x area overhead;")
        .note("pipelined engines approach the unsecure baseline.")
}

/// Latency of the unsecure baseline and the pipelined / parallel secure
/// designs on each of the base-architecture `variants` (Figs. 14, 15).
fn scaling_table(
    header: &'static str,
    variants: Vec<(String, Architecture)>,
    notes: [&str; 2],
) -> Output {
    let mut table = Table::new(header);
    for net in workloads() {
        for (label, base) in &variants {
            for crypto in [
                None,
                Some(CryptoConfig::new(EngineClass::Pipelined, 3)),
                Some(CryptoConfig::new(EngineClass::Parallel, 3)),
            ] {
                let (arch, algo, config) = match crypto {
                    None => (base.clone(), Algorithm::Unsecure, "Unsecure".to_string()),
                    Some(c) => (
                        base.clone().with_crypto(c.clone()),
                        Algorithm::CryptOptCross,
                        c.label(),
                    ),
                };
                let s = paper_scheduler(arch)
                    .schedule(&net, algo)
                    .expect("schedule");
                table.push(cells![net.name(), label, config, s.total_latency_cycles]);
            }
        }
    }
    Output::new(table).note(notes[0]).note(notes[1])
}

/// Latency vs PE-array size (14×12, 14×24, 28×24). The unsecure
/// baseline scales almost linearly with PE count; the parallel-engine
/// design barely improves because the decrypted-data supply bottlenecks.
pub(crate) fn fig14() -> Output {
    let variants = FIG14_PE_ARRAYS
        .iter()
        .map(|&(x, y)| {
            (
                format!("{x}x{y}"),
                Architecture::eyeriss_base().with_pe_array(x, y),
            )
        })
        .collect();
    scaling_table(
        "workload,pe_array,config,latency_cycles",
        variants,
        [
            "paper: unsecure latency ~halves per PE doubling; the parallel-engine",
            "design is bandwidth-bound and gains little from more PEs.",
        ],
    )
}

/// Latency vs global-buffer capacity (16/32/131 kB). Shrinking the
/// buffer raises off-chip traffic; the unsecure design absorbs it, the
/// parallel-engine design is throttled further.
pub(crate) fn fig15() -> Output {
    let variants = FIG15_GLB_KB
        .iter()
        .map(|&kb| (kb.to_string(), Architecture::eyeriss_base().with_glb_kb(kb)))
        .collect();
    scaling_table(
        "workload,glb_kb,config,latency_cycles",
        variants,
        [
            "paper: small buffers -> larger off-chip traffic -> longer latency for the",
            "bandwidth-limited secure designs; the unsecure baseline barely moves.",
        ],
    )
}

/// Area vs performance of secure designs (PE array × GLB size × engine
/// class) on AlexNet, with the Pareto front. Small-buffer +
/// high-throughput-engine designs are often Pareto-optimal; large PE
/// arrays with low-throughput engines are dominated.
pub(crate) fn fig16() -> Output {
    let net = zoo::alexnet_conv();
    let designs = fig16_design_space();
    let results = evaluate_designs(
        &net,
        &designs,
        Algorithm::CryptOptCross,
        &paper_search(),
        &paper_annealing(),
    );
    let front = pareto_front(&results);

    let mut table = Table::new("design,area_mm2,latency_cycles,pareto");
    let mut order: Vec<usize> = (0..results.len()).collect();
    order.sort_by(|&a, &b| {
        results[a]
            .area_mm2()
            .partial_cmp(&results[b].area_mm2())
            .unwrap()
    });
    for i in order {
        let r = &results[i];
        table.push(cells![
            r.label,
            format!("{:.3}", r.area_mm2()),
            r.latency(),
            front.contains(&i)
        ]);
    }
    let small_glb_fast_engine = front
        .iter()
        .any(|&i| results[i].label.contains("16kB") && results[i].label.contains("Pipelined"));

    let mut plot = Plot::new(
        "Fig. 16: area vs performance trade-off (AlexNet)",
        "area (mm^2)",
        "latency (cycles)",
    );
    let xy = |i: usize| (results[i].area_mm2(), results[i].latency() as f64);
    plot.push(Series::scatter(
        "designs",
        (0..results.len()).map(xy).collect(),
    ));
    plot.push(Series::line(
        "pareto front",
        front.iter().map(|&i| xy(i)).collect(),
    ));
    let mut out = Output::new(table).note(format!(
        "{} designs on {} with Crypt-Opt-Cross; Pareto front:",
        designs.len(),
        net.name()
    ));
    out.notes
        .extend(front.iter().map(|&i| format!("  {}", results[i].label)));
    out.note(format!(
        "paper insight check — small-GLB + pipelined-engine design on the front: {}",
        if small_glb_fast_engine { "yes" } else { "no" }
    ))
    .file("fig16.svg", plot.to_svg())
}

/// LPDDR4 at 64 and 128 B/cycle and HBM2 at 64 B/cycle on AlexNet.
/// Bandwidth does not change secure latency (the engine bottlenecks),
/// but HBM2's cheaper accesses cut energy for both designs.
pub(crate) fn dram_sweep() -> Output {
    let net = zoo::alexnet_conv();
    let mut table = Table::new("dram,config,latency_cycles,energy_uj");
    for dram in dram_configs() {
        let base = Architecture::eyeriss_base().with_dram(dram.clone());
        let secure_arch = base
            .clone()
            .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        for (config, arch, algo) in [
            ("Unsecure", base, Algorithm::Unsecure),
            ("Parallel x3", secure_arch, Algorithm::CryptOptCross),
        ] {
            let s = paper_scheduler(arch)
                .schedule(&net, algo)
                .expect("schedule");
            table.push(cells![
                dram.name(),
                config,
                s.total_latency_cycles,
                format!("{:.3}", s.total_energy_pj / 1e6)
            ]);
        }
    }
    Output::new(table)
        .note("AlexNet, base architecture, Crypt-Opt-Cross")
        .note("paper: bandwidth changes neither secure latency nor energy; HBM2 cuts")
        .note("energy for both unsecure and secure designs at unchanged latency.")
}

/// The artifact's `run_all.ipynb` workflow: every scheduling algorithm
/// on all three workloads, with per-schedule stats and JSON reports and
/// the summary CSV.
pub(crate) fn run_all() -> Output {
    let scheduler = paper_scheduler(base_secure_arch());
    let mut table = Table::new(
        "network,algorithm,arch,latency_cycles,energy_pj,edp,hash_bits,redundant_bits,rehash_bits",
    );
    let mut files = Vec::new();
    for net in workloads() {
        for algo in ALL_ALGORITHMS {
            let s = scheduler.schedule(&net, algo).expect("schedule");
            let slug = format!(
                "{}_{}",
                net.name().to_lowercase(),
                algo.name().to_lowercase().replace('-', "_")
            );
            files.push((format!("stats_{slug}.txt"), report::layer_stats_text(&s)));
            files.push((format!("stats_{slug}.json"), report::to_json(&s)));
            // The same cells as `report::write_summary_csv`.
            table.push(cells![
                s.network,
                s.algorithm,
                format!("\"{}\"", s.arch_summary),
                s.total_latency_cycles,
                format!("{:.1}", s.total_energy_pj),
                format!("{:.3e}", s.edp()),
                s.overhead.hash_bits,
                s.overhead.redundant_bits,
                s.overhead.rehash_bits
            ]);
        }
    }
    let mut out = Output::new(table).note(format!(
        "{} schedules; stats_* and JSON reports written alongside",
        files.len() / 2
    ));
    out.csv = Some("run_all_summary.csv");
    out.files = files;
    out
}
