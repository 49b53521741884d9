//! The random-mode mapper's hot loop allocates nothing.
//!
//! A random-mode group search draws a mapping, runs `traffic` once on
//! the largest-GLB design of the group, and prices the draw for every
//! design. This file counts heap allocations on the test's own thread
//! and checks that those three steps make none, for every zoo layer
//! shape on every Fig. 16 PE group: a `Vec` built per draw (say, for
//! the dataflow's spatial dims or the temporal loops) shows up here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use secureloop::dse::fig16_design_space;
use secureloop_arch::Architecture;
use secureloop_loopnest::{traffic, DrawIdentity, Pricing, SearchSpaceKey};
use secureloop_mapper::MappingSampler;
use secureloop_workload::{zoo, ConvLayer};

/// Counts every allocation made on the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // During thread teardown the slot may be gone; those allocations
    // belong to no measured loop.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a thread-local `Cell` with a const initialiser, which allocates
// nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Every layer of every zoo network the CLI names, one per distinct
/// search space on the base design.
fn zoo_layers() -> Vec<ConvLayer> {
    let nets = [
        zoo::alexnet_conv(),
        zoo::alexnet_conv_grouped(),
        zoo::resnet18(),
        zoo::resnet50(),
        zoo::mobilenet_v2(),
        zoo::vgg16(),
        zoo::mlp(4, 4096),
        zoo::attention(128, 512),
        zoo::llm_decode(1024),
        zoo::vit_tiny(2),
        zoo::dilated_context(56, 64, 4),
        zoo::resnext_stage(28, 128, 32, 2),
    ];
    let base = Architecture::eyeriss_base();
    let mut seen: Vec<String> = Vec::new();
    let mut layers = Vec::new();
    for net in &nets {
        for layer in net.layers() {
            let key = SearchSpaceKey::of(layer, &base).as_str().to_string();
            if !seen.contains(&key) {
                seen.push(key);
                layers.push(layer.clone());
            }
        }
    }
    layers
}

/// The Fig. 16 designs grouped by draw identity, in design order.
fn groups(designs: &[Architecture]) -> Vec<Vec<&Architecture>> {
    let mut groups: Vec<Vec<&Architecture>> = Vec::new();
    for arch in designs {
        match groups
            .iter_mut()
            .find(|g| DrawIdentity::of(g[0]) == DrawIdentity::of(arch))
        {
            Some(g) => g.push(arch),
            None => groups.push(vec![arch]),
        }
    }
    groups
}

const ROUNDS: usize = 1000;

#[test]
fn draw_traffic_and_price_allocate_nothing() {
    let designs = fig16_design_space();
    let groups = groups(&designs);
    assert_eq!(groups.len(), 3);
    let mut valid = 0u64;
    for layer in zoo_layers() {
        for group in &groups {
            let widest = group
                .iter()
                .copied()
                .max_by_key(|a| a.glb_bytes())
                .expect("a group has designs");
            let pricing: Vec<Pricing> = group.iter().map(|a| Pricing::of(a)).collect();
            let mut sampler = MappingSampler::new(&layer, widest, 7);
            let before = allocations();
            for _ in 0..ROUNDS {
                let mapping = sampler.sample();
                if let Ok(t) = traffic(&layer, widest, &mapping) {
                    valid += 1;
                    for p in &pricing {
                        let _ = black_box(t.price(p));
                    }
                }
            }
            let made = allocations() - before;
            assert_eq!(
                made,
                0,
                "layer {} on the {}x{} group: {made} allocations in {ROUNDS} rounds",
                layer.name(),
                widest.pe_x(),
                widest.pe_y()
            );
        }
    }
    // The loop priced real draws, not only rejects.
    assert!(valid > 0);
}
