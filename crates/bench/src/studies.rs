//! Extended studies past the paper's figures (see `EXPERIMENTS.md`).

use secureloop::fusion::fusable_pairs;
use secureloop::{Algorithm, Scheduler};
use secureloop_arch::{Architecture, Dataflow};
use secureloop_authblock::channel::{channel_overhead_bits, ChannelRequest};
use secureloop_authblock::{
    optimize, sweep, AccessPattern, AssignmentProblem, Orientation, Region, TileGrid, TileRect,
};
use secureloop_crypto::merkle::tree_traffic_bits;
use secureloop_crypto::{CryptoConfig, EngineClass};
use secureloop_energy::AreaModel;
use secureloop_loopnest::Mapping;
use secureloop_mapper::{greedy_mapping, search, SearchConfig, SearchMode};
use secureloop_sim::{generate_trace, replay_dram, DramTiming};
use secureloop_workload::{zoo, ConvLayer, Datatype, Dim};

use crate::plot::{Plot, Series};
use crate::{base_secure_arch, cells, paper_annealing, paper_scheduler, workloads, Output, Table};

/// The base secure configuration's engines: one parallel engine per datatype.
fn parallel_x3() -> CryptoConfig {
    CryptoConfig::new(EngineClass::Parallel, 3)
}

/// Total latency of `net` under `algo` with the paper budgets on `arch`.
fn latency(arch: Architecture, net: &secureloop_workload::Network, algo: Algorithm) -> u64 {
    paper_scheduler(arch)
        .schedule(net, algo)
        .expect("schedule")
        .total_latency_cycles
}

/// What the tree-less integrity assumption of secure DNN accelerators
/// (§2.2, §6) saves over a CPU-style Merkle tree on the same traffic:
/// counters come from the access pattern, so integrity costs only the
/// per-AuthBlock tags the scheduler already accounts for.
pub(crate) fn treeless_ablation() -> Output {
    let scheduler = paper_scheduler(base_secure_arch());
    let mut table =
        Table::new("workload,data_mbit,treeless_mbit,tree_arity2_mbit,tree_arity8_mbit");
    let mut savings = Vec::new();
    for net in workloads() {
        let s = scheduler
            .schedule(&net, Algorithm::CryptOptCross)
            .expect("schedule");
        let data_bits: u64 = s.layers.iter().map(|l| l.data_dram_bits).sum();
        let treeless_bits = s.overhead.total_bits();

        // Protected footprint: every distinct tensor, in 64-byte
        // counter/tag granules (a typical CPU-TEE cache-line unit).
        let footprint_blocks: u64 = net
            .layers()
            .iter()
            .map(|l| {
                Datatype::ALL
                    .iter()
                    .map(|&dt| l.tensor_bits(dt))
                    .sum::<u64>()
                    / 512
            })
            .sum();
        // Accesses: each 64-byte granule moved once per 512 bits of
        // traffic, read-modify-write on the tree path. Two on-chip
        // cached levels, as in optimised CPU trees [37].
        let accesses = (data_bits + treeless_bits) / 512;
        let tree2 = tree_traffic_bits(accesses, footprint_blocks, 2, 2, true);
        let tree8 = tree_traffic_bits(accesses, footprint_blocks, 8, 2, true);
        let mbit = |bits: u64| format!("{:.3}", bits as f64 / 1e6);
        table.push(cells![
            net.name(),
            mbit(data_bits),
            mbit(treeless_bits),
            mbit(tree2),
            mbit(tree8)
        ]);
        savings.push(format!(
            "{}: an arity-8 tree adds {:.0}x the tree-less overhead",
            net.name(),
            tree8 as f64 / treeless_bits as f64
        ));
    }
    let mut out = Output::new(table);
    out.notes = savings;
    out.note("paper context: tree-less designs [18, 19, 27] remove the Merkle tree by")
        .note("deriving counters from the accelerator's deterministic access pattern;")
        .note("the gap above is the traffic a CPU-style tree would add on these workloads.")
}

/// Direct-conv ifmap problem: window tiles with halos over one channel
/// plane (a representative 4x4 grid of 14-output-row tiles).
fn direct_problem(layer: &ConvLayer) -> (AssignmentProblem, u64) {
    let region = Region::new(layer.ifmap_height(), layer.ifmap_width());
    let p_tile = (layer.dim(Dim::P).div_ceil(4)).max(1);
    let q_tile = (layer.dim(Dim::Q).div_ceil(4)).max(1);
    let window_h = ((p_tile - 1) * layer.stride() + layer.dim(Dim::R)).min(region.h);
    let window_w = ((q_tile - 1) * layer.stride() + layer.dim(Dim::S)).min(region.w);
    let grid = TileGrid::covering_with_halo(
        region,
        window_h,
        window_w,
        p_tile * layer.stride(),
        q_tile * layer.stride(),
    );
    (
        AssignmentProblem {
            region,
            producer_grid: TileGrid::covering(region, region.h, region.w),
            producer_write_sweeps: 0,
            readers: vec![AccessPattern { grid, sweeps: 1 }],
            word_bits: layer.word_bits(),
            tag_bits: 64,
        },
        layer.ifmap_channels(),
    )
}

/// Fig. 5's two accelerator styles on every AlexNet/ResNet conv layer:
/// direct convolution reads the compact ifmap with halos and pays the
/// optimiser-minimised AuthBlock overhead; im2col reads a duplicated
/// matrix with disjoint tiles, so it pays only tags.
pub(crate) fn im2col_compare() -> Output {
    let mut table = Table::new("layer,duplication,direct_data_mbit,direct_overhead_mbit,im2col_data_mbit,im2col_tag_mbit,winner");
    for net in [zoo::alexnet_conv(), zoo::resnet18()] {
        for layer in net.layers().iter().filter(|l| l.dim(Dim::R) > 1) {
            let (problem, planes) = direct_problem(layer);
            let choice = optimize(&problem);
            let direct_data = layer.tensor_bits(Datatype::Ifmap);
            let direct_ovh = choice.overhead.total().total_bits() * planes;

            // im2col: duplicated matrix read once; disjoint tiles mean
            // tile-aligned blocks with zero redundancy — only tags.
            let im2col_data = layer.im2col_ifmap_elems() * u64::from(layer.word_bits());
            let grid = &problem.readers[0].grid;
            let tiles = layer
                .im2col_ifmap_elems()
                .div_ceil((grid.tile_h * grid.tile_w).max(1));
            let im2col_tags = tiles * 64;

            let winner = if direct_data + direct_ovh <= im2col_data + im2col_tags {
                "direct"
            } else {
                "im2col"
            };
            let mbit = |bits: u64| format!("{:.3}", bits as f64 / 1e6);
            table.push(cells![
                layer.name(),
                format!("{:.2}", layer.im2col_duplication()),
                mbit(direct_data),
                mbit(direct_ovh),
                mbit(im2col_data),
                mbit(im2col_tags),
                winner
            ]);
        }
    }
    Output::new(table)
        .note("paper context (Fig. 5): halos make tile-as-an-AuthBlock unappealing for")
        .note("direct conv, but the im2col alternative multiplies the data itself —")
        .note("SecureLoop's optimal assignment keeps direct conv's footprint advantage.")
}

/// The same crypto engine imposes a different slowdown under
/// row-, weight- and output-stationary dataflows, because each leaves a
/// different datatype streaming off-chip (§1, §3).
pub(crate) fn dataflow_sweep() -> Output {
    let dataflows = [
        ("row-stationary", Dataflow::RowStationary),
        ("weight-stationary", Dataflow::WeightStationary),
        ("output-stationary", Dataflow::OutputStationary),
        ("unconstrained", Dataflow::Unconstrained),
    ];
    let mut table = Table::new("workload,dataflow,unsecure_cycles,secure_cycles,slowdown");
    for net in workloads() {
        for (name, df) in dataflows {
            let base = Architecture::eyeriss_base().with_dataflow(df);
            let unsec = latency(base.clone(), &net, Algorithm::Unsecure);
            let secure = latency(
                base.with_crypto(parallel_x3()),
                &net,
                Algorithm::CryptOptCross,
            );
            table.push(cells![
                net.name(),
                name,
                unsec,
                secure,
                format!("{:.4}", secure as f64 / unsec as f64)
            ]);
        }
    }
    Output::new(table)
        .note("paper context (§1): the cost of securing an architecture depends on its")
        .note("dataflow — a single fixed design point does not generalise, which is why")
        .note("a design-space exploration tool is needed.")
}

/// §3.1 quantified: engines that are a rounding error on a TPU-class
/// part are a first-order constraint on an Eyeriss-class edge part.
pub(crate) fn edge_vs_cloud() -> Output {
    let net = zoo::mobilenet_v2();
    let mut table = Table::new("platform,engines,slowdown,crypto_area_pct");
    for (label, base) in [
        ("edge", Architecture::eyeriss_base()),
        ("datacenter", Architecture::tpu_like()),
    ] {
        let unsec = latency(base.clone(), &net, Algorithm::Unsecure);
        for cfg in [parallel_x3(), CryptoConfig::new(EngineClass::Pipelined, 3)] {
            let arch = base.clone().with_crypto(cfg.clone());
            let area_pct = AreaModel::of(&arch).crypto_overhead_fraction() * 100.0;
            let sec = latency(arch, &net, Algorithm::CryptOptCross);
            table.push(cells![
                label,
                cfg.label(),
                format!("{:.4}", sec as f64 / unsec as f64),
                format!("{area_pct:.3}")
            ]);
        }
    }
    Output::new(table)
        .note("MobileNetV2, Crypt-Opt-Cross")
        .note("paper §3.1: 3 pipelined engines are ~35% of Eyeriss's logic but a rounding")
        .note("error on a >100 mm^2 datacenter part; slowdowns diverge the same way.")
}

/// How much of the remaining secure overhead fused-layer processing
/// (§4.3, [43]) would remove on top of the optimal assignment: data
/// pinned in the GLB never leaves the chip, so it needs no AuthBlocks.
pub(crate) fn fusion_ablation() -> Output {
    let arch = base_secure_arch();
    let scheduler = paper_scheduler(arch.clone());
    let mut table = Table::new(
        "workload,coupled_pairs,fusable_pairs,saved_mbit,cross_latency,fused_upper_bound",
    );
    for net in workloads() {
        let cands = scheduler.candidates(&net, Algorithm::CryptOptCross);
        let mappings: Vec<Mapping> = cands
            .per_layer
            .iter()
            .map(|c| c.best().expect("has candidates").0.clone())
            .collect();
        let coupled: usize = net.segments().iter().map(|s| s.layers.len() - 1).sum();
        let fusable = fusable_pairs(&net, &arch, &mappings);
        let saved_bits: u64 = fusable.iter().map(|(_, _, f)| f.saved_data_bits).sum();

        let cross = scheduler
            .schedule_with_candidates(&net, Algorithm::CryptOptCross, &cands)
            .expect("schedule");
        // Upper-bound estimate: per fused pair, latency drops by at
        // most the pair's improvement (pairs may share layers; taking
        // disjoint pairs greedily gives a defensible bound).
        let mut used = vec![false; net.len()];
        let mut bound = cross.total_latency_cycles;
        for (a, b, f) in &fusable {
            if used[*a] || used[*b] {
                continue;
            }
            used[*a] = true;
            used[*b] = true;
            let unfused = cross.layers[*a].latency_cycles + cross.layers[*b].latency_cycles;
            bound = bound.saturating_sub(unfused.saturating_sub(f.latency_cycles));
        }
        table.push(cells![
            net.name(),
            coupled,
            fusable.len(),
            format!("{:.2}", saved_bits as f64 / 1e6),
            cross.total_latency_cycles,
            bound
        ]);
    }
    Output::new(table)
        .note("paper §4.3: fused-layer scheduling [43] is 'promising yet orthogonal' —")
        .note("this bound shows what it could add on top of Crypt-Opt-Cross.")
}

/// Truncated authentication-tag size under Crypt-Opt-Cross: the paper's
/// evaluation uses 64-bit tags; shorter tags trade integrity strength
/// for hash traffic.
pub(crate) fn tag_sweep() -> Output {
    let mut table = Table::new("workload,tag_bits,latency_cycles,hash_mbit,total_overhead_mbit");
    for net in workloads() {
        for tag_bits in [32u32, 64, 128] {
            let mut cfg = parallel_x3();
            cfg.tag_bits = tag_bits;
            let s = paper_scheduler(Architecture::eyeriss_base().with_crypto(cfg))
                .schedule(&net, Algorithm::CryptOptCross)
                .expect("schedule");
            table.push(cells![
                net.name(),
                tag_bits,
                s.total_latency_cycles,
                format!("{:.3}", s.overhead.hash_bits as f64 / 1e6),
                format!("{:.3}", s.overhead.total_bits() as f64 / 1e6)
            ]);
        }
    }
    Output::new(table)
        .note("note: the AuthBlock optimiser adapts — larger tags push it toward")
        .note("bigger blocks, so latency grows sublinearly in tag size.")
}

/// Batch-size sensitivity: batching multiplies weight reuse, which
/// changes which datatype stream bottlenecks the engines.
pub(crate) fn batch_sweep() -> Output {
    let arch = base_secure_arch();
    // Batched layers have a much larger mapping space; use a focused
    // budget per batch point.
    let search = SearchConfig {
        samples: 3000,
        top_k: 6,
        seed: 21,
        threads: 8,
        deadline: None,
        mode: SearchMode::Random,
    };
    let base_net = zoo::mobilenet_v2();
    let mut table = Table::new("batch,unsecure_cycles,secure_cycles,secure_per_inference,slowdown");
    for n in [1u64, 4, 16] {
        let net = if n == 1 {
            base_net.clone()
        } else {
            base_net.with_batch(n)
        };
        let scheduler = Scheduler::new(arch.clone())
            .with_search(search)
            .with_annealing(paper_annealing().with_iterations(300));
        let unsec = scheduler
            .schedule(&net, Algorithm::Unsecure)
            .expect("schedule")
            .total_latency_cycles;
        let sec = scheduler
            .schedule(&net, Algorithm::CryptOptCross)
            .expect("schedule")
            .total_latency_cycles;
        table.push(cells![
            n,
            unsec,
            sec,
            sec / n,
            format!("{:.4}", sec as f64 / unsec as f64)
        ]);
    }
    Output::new(table)
        .note("MobileNetV2, Crypt-Opt-Cross vs batch size")
        .note("batching amortises weight traffic across inferences: cycles per")
        .note("inference and the secure slowdown both drop as N grows.")
}

/// Unified vs Eyeriss-style partitioned register files: partitioned
/// scratchpads constrain the mapper more tightly, which is the price of
/// the common unified-RF simplification.
pub(crate) fn rf_fidelity() -> Output {
    let mut table = Table::new("workload,rf_model,unsecure_cycles,secure_cycles");
    for net in workloads() {
        for (label, base) in [
            ("unified", Architecture::eyeriss_base()),
            ("partitioned", Architecture::eyeriss_partitioned()),
        ] {
            let unsec = latency(base.clone(), &net, Algorithm::Unsecure);
            let sec = latency(
                base.with_crypto(parallel_x3()),
                &net,
                Algorithm::CryptOptCross,
            );
            table.push(cells![net.name(), label, unsec, sec]);
        }
    }
    Output::new(table)
        .note("partitioned spads shrink the feasible mapping space; the gap above is")
        .note("what the unified-RF simplification hides.")
}

/// Convergence of the random-pruned mapper (Timeloop's search mode)
/// with the sample budget, against the greedy construction. The curve
/// flattens well before the experiments' 4000 samples per layer.
pub(crate) fn mapper_convergence() -> Output {
    let arch = base_secure_arch();
    let net = zoo::resnet18();
    let budgets = [50usize, 100, 250, 500, 1000, 2000, 4000, 8000];
    let mut table = Table::new("layer,samples,best_latency_cycles,greedy_latency_cycles");
    let mut plot = Plot::new(
        "Mapper convergence (ResNet-18 layers, secure base arch)",
        "samples",
        "best latency (cycles)",
    )
    .with_log_x();
    for li in [1usize, 5, 9] {
        let layer = &net.layers()[li];
        let greedy = greedy_mapping(layer, &arch).expect("greedy works").1;
        let mut pts = Vec::new();
        for &samples in &budgets {
            let cfg = SearchConfig {
                samples,
                top_k: 1,
                seed: 1,
                threads: 4,
                deadline: None,
                mode: SearchMode::Random,
            };
            let best = search(layer, &arch, &cfg)
                .expect("search succeeds")
                .best()
                .expect("nonempty")
                .1
                .latency_cycles;
            table.push(cells![layer.name(), samples, best, greedy.latency_cycles]);
            pts.push((samples as f64, best as f64));
        }
        plot.push(Series::line(layer.name(), pts));
    }
    Output::new(table).file("mapper_convergence.svg", plot.to_svg())
}

/// Replays mapper-chosen schedules through the banked open-row DRAM
/// model (LPDDR4 timing) to bound how much bandwidth the flat
/// bytes-per-cycle abstraction (§4.1, §5.1) overestimates.
pub(crate) fn dram_validation() -> Output {
    let arch = Architecture::eyeriss_base();
    let scheduler = paper_scheduler(arch.clone());
    let mut table = Table::new("layer,bytes,bus_efficiency,row_hit_rate,bytes_per_cycle");
    let mut worst: f64 = 1.0;
    for net in [zoo::alexnet_conv(), zoo::resnet18()] {
        let sched = scheduler
            .schedule(&net, Algorithm::Unsecure)
            .expect("schedule");
        for (layer, res) in net.layers().iter().zip(&sched.layers) {
            let Ok(trace) = generate_trace(layer, &arch.clone().without_crypto(), &res.mapping)
            else {
                continue;
            };
            let r = replay_dram(&trace, DramTiming::lpddr4());
            table.push(cells![
                res.name,
                r.bytes,
                format!("{:.4}", r.bus_efficiency()),
                format!("{:.4}", r.row_hit_rate),
                format!("{:.2}", r.bytes_per_cycle())
            ]);
            worst = worst.min(r.bus_efficiency());
        }
    }
    Output::new(table)
        .note(format!(
            "worst bus efficiency: {worst:.2} — the flat 64 B/cycle abstraction \
             overestimates by at most {:.0}% on these schedules",
            (1.0 / worst - 1.0) * 100.0
        ))
        .note("(and the crypto engine, not the DRAM, is the secure bottleneck anyway)")
}

/// Where the joules go: energy attributed to MACs, register files, the
/// GLB, the NoC, the DRAM interface and the engines — for throttled
/// designs the crypto + DRAM share dominates (§5.1, §5.2).
pub(crate) fn energy_breakdown() -> Output {
    let scheduler = paper_scheduler(base_secure_arch());
    let mut table = Table::new("workload,algorithm,mac_pj,rf_pj,glb_pj,noc_pj,dram_pj,crypto_pj");
    for net in workloads() {
        for algo in [Algorithm::Unsecure, Algorithm::CryptOptCross] {
            let e = scheduler
                .schedule(&net, algo)
                .expect("schedule")
                .energy_breakdown();
            let pj = |v: f64| format!("{v:.1}");
            table.push(cells![
                net.name(),
                algo.name(),
                pj(e.mac_pj),
                pj(e.rf_pj),
                pj(e.glb_pj),
                pj(e.noc_pj),
                pj(e.dram_pj),
                pj(e.crypto_pj)
            ]);
        }
    }
    Output::new(table)
        .note("DRAM dominates the unsecure energy; securing adds the crypto share on")
        .note("top of every off-chip bit, which is what the AuthBlock optimiser trims.")
}

/// Channel-major AuthBlocks (§4.2's n-D generalisation) on MobileNetV2's
/// pointwise geometry: when a 1×1 consumer reads channel chunks of every
/// pixel, do blocks along the channel axis beat the in-plane ones? Both
/// options are swept over block sizes with 8-bit words and 64-bit tags.
pub(crate) fn channel_major_ablation() -> Output {
    // Representative MobileNetV2 pointwise transitions:
    // (name, spatial hw, channels, consumer channel chunk)
    let cases = [
        ("b14_project->b15_expand", 7u64, 160u64, 32u64),
        ("b2_project->b3_expand", 56, 24, 8),
        ("conv_last-in", 7, 320, 64),
    ];
    let mut table = Table::new("transition,needed_bits,inplane_best_bits,channel_best_bits,winner");
    for (name, hw, channels, chunk) in cases {
        // In-plane: the tensor as `channels` planes of hw x hw; the
        // consumer reads the whole plane once per channel chunk (1x1
        // conv, same spatial tiling): per-plane problem swept over
        // both in-plane orientations, x channels.
        let region = Region::new(hw, hw);
        let problem = AssignmentProblem {
            region,
            producer_grid: TileGrid::covering(region, hw, hw),
            producer_write_sweeps: 1,
            readers: vec![AccessPattern {
                grid: TileGrid::covering(region, hw, hw),
                sweeps: 1,
            }],
            word_bits: 8,
            tag_bits: 64,
        };
        let inplane_best = Orientation::ALL
            .iter()
            .flat_map(|&o| sweep(&problem, o))
            .map(|(_, ovh)| ovh.total_bits() * channels)
            .min()
            .expect("sweep nonempty");

        // Channel-major: one producer tile holding all channels per
        // pixel; the consumer makes one request per channel chunk.
        let requests: Vec<ChannelRequest> = (0..channels / chunk)
            .map(|i| ChannelRequest {
                pixel_rows: hw,
                pixel_cols: hw,
                channels,
                window: TileRect::new(0, 0, hw, hw),
                chan0: i * chunk,
                chan_count: chunk,
            })
            .collect();
        let channel_best = (1..=channels)
            .filter(|u| channels.is_multiple_of(*u) || *u <= 64)
            .map(|u| {
                // Producer-side tags: blocks in the tile, written once.
                let blocks = (hw * hw * channels).div_ceil(u);
                blocks * 64 + channel_overhead_bits(&requests, u, 8, 64)
            })
            .min()
            .expect("nonempty");

        let winner = if channel_best < inplane_best {
            "chan-major"
        } else {
            "in-plane"
        };
        table.push(cells![
            name,
            hw * hw * channels * 8,
            inplane_best,
            channel_best,
            winner
        ]);
    }
    Output::new(table)
        .note("paper §4.2 generalises AuthBlocks to n dimensions; for pointwise")
        .note("consumers that read channel chunks, channel-major blocks align with the")
        .note("access pattern and cut redundant reads the in-plane orientations incur.")
}
