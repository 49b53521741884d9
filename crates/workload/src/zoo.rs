//! The evaluation workloads of the paper (§5.1) — AlexNet's
//! convolutional front, ResNet-18, and MobileNetV2 — plus ResNet-50,
//! VGG-16, parametric MLP chains, and a modern zoo: transformer
//! attention blocks ([`attention`]), LLM-decode FC stacks
//! ([`llm_decode`]), ViT patch embedding ([`vit_tiny`]), dilated
//! context aggregation ([`dilated_context`]) and grouped ResNeXt
//! bottlenecks ([`resnext_stage`]). All batch 1 (see
//! [`Network::with_batch`]), 8-bit words (see
//! [`Network::with_word_bits`] for fp16 variants).
//!
//! [`alexnet_conv`] models the grouped convolutions of the original
//! AlexNet ungrouped, as is conventional in Timeloop-based
//! evaluations; [`alexnet_conv_grouped`] keeps the historical 2-way
//! grouping explicit. Residual branches are represented by
//! [`PostOp::ResidualAdd`] boundaries (see [`crate::graph`]).

use crate::graph::{Network, PostOp};
use crate::layer::ConvLayer;

fn conv(name: &str, hw: u64, cin: u64, cout: u64, k: u64, stride: u64, pad: u64) -> ConvLayer {
    ConvLayer::builder(name)
        .input_hw(hw, hw)
        .channels(cin, cout)
        .kernel(k, k)
        .stride(stride)
        .pad(pad)
        .build()
        .unwrap_or_else(|e| panic!("zoo layer {name}: {e}"))
}

fn dwconv(name: &str, hw: u64, ch: u64, stride: u64) -> ConvLayer {
    ConvLayer::builder(name)
        .input_hw(hw, hw)
        .channels(ch, ch)
        .kernel(3, 3)
        .stride(stride)
        .pad(1)
        .depthwise()
        .build()
        .unwrap_or_else(|e| panic!("zoo layer {name}: {e}"))
}

/// The first five (convolutional) layers of AlexNet, as evaluated in the
/// paper ("we only consider first 5 layers of AlexNet that are
/// convolutional", §5.1).
pub fn alexnet_conv() -> Network {
    let mut net = Network::new("AlexNet");
    net.push(
        conv("conv1", 227, 3, 96, 11, 4, 0),
        &[PostOp::Relu, PostOp::MaxPool],
    );
    net.push(
        conv("conv2", 27, 96, 256, 5, 1, 2),
        &[PostOp::Relu, PostOp::MaxPool],
    );
    net.push(conv("conv3", 13, 256, 384, 3, 1, 1), &[PostOp::Relu]);
    net.push(conv("conv4", 13, 384, 384, 3, 1, 1), &[PostOp::Relu]);
    net.push(
        conv("conv5", 13, 384, 256, 3, 1, 1),
        &[PostOp::Relu, PostOp::MaxPool],
    );
    net
}

/// ResNet-18 at 224×224. The elementwise residual additions terminate
/// segments; 1×1 downsample convolutions are scheduled as their own
/// segments.
pub fn resnet18() -> Network {
    let mut net = Network::new("ResNet18");
    net.push(
        conv("conv1", 224, 3, 64, 7, 2, 3),
        &[PostOp::BatchNorm, PostOp::Relu, PostOp::MaxPool],
    );

    // (stage, channels, input hw, downsample?)
    let stages: [(u64, u64, bool); 4] = [
        (64, 56, false),
        (128, 28, true),
        (256, 14, true),
        (512, 7, true),
    ];
    let mut cin = 64;
    for (si, &(ch, hw, down)) in stages.iter().enumerate() {
        let s = si + 1;
        for b in 1..=2u32 {
            let first_stride = if b == 1 && down { 2 } else { 1 };
            let in_hw = if b == 1 && down { hw * 2 } else { hw };
            let bc = if b == 1 { cin } else { ch };
            net.push(
                conv(&format!("l{s}b{b}c1"), in_hw, bc, ch, 3, first_stride, 1),
                &[PostOp::BatchNorm, PostOp::Relu],
            );
            net.push(
                conv(&format!("l{s}b{b}c2"), hw, ch, ch, 3, 1, 1),
                &[PostOp::BatchNorm, PostOp::ResidualAdd],
            );
            if b == 1 && down {
                // Projection shortcut: separate segment on both sides.
                net.push(
                    conv(&format!("l{s}ds"), hw * 2, cin, ch, 1, 2, 0),
                    &[PostOp::BatchNorm, PostOp::ResidualAdd],
                );
            }
        }
        cin = ch;
    }
    net.push(
        ConvLayer::builder("fc")
            .channels(512, 1000)
            .build()
            .expect("fc"),
        &[],
    );
    net
}

/// MobileNetV2 at 224×224, width multiplier 1.0 (52 convolutions + final
/// classifier). Inverted-residual blocks whose input and output shapes
/// match end in a [`PostOp::ResidualAdd`] boundary; all other transitions
/// are BatchNorm/ReLU6 and stay fusable, which is what makes MobileNetV2
/// the workload with the longest coupled chains (paper §5.1).
pub fn mobilenet_v2() -> Network {
    let mut net = Network::new("MobilenetV2");
    net.push(
        conv("conv0", 224, 3, 32, 3, 2, 1),
        &[PostOp::BatchNorm, PostOp::Relu],
    );

    // (expansion t, cout, repeats, first stride)
    let cfg: [(u64, u64, u32, u64); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut cin: u64 = 32;
    let mut hw: u64 = 112;
    let mut blk = 0u32;
    for &(t, cout, n, first_stride) in &cfg {
        for r in 0..n {
            blk += 1;
            let stride = if r == 0 { first_stride } else { 1 };
            let residual = stride == 1 && cin == cout;
            let hidden = cin * t;
            if t != 1 {
                net.push(
                    conv(&format!("b{blk}_expand"), hw, cin, hidden, 1, 1, 0),
                    &[PostOp::BatchNorm, PostOp::Relu],
                );
            }
            net.push(
                dwconv(&format!("b{blk}_dw"), hw, hidden, stride),
                &[PostOp::BatchNorm, PostOp::Relu],
            );
            hw /= stride;
            let proj_post: &[PostOp] = if residual {
                &[PostOp::BatchNorm, PostOp::ResidualAdd]
            } else {
                &[PostOp::BatchNorm]
            };
            net.push(
                conv(&format!("b{blk}_project"), hw, hidden, cout, 1, 1, 0),
                proj_post,
            );
            cin = cout;
        }
    }
    net.push(
        conv("conv_last", 7, 320, 1280, 1, 1, 0),
        &[PostOp::BatchNorm, PostOp::Relu, PostOp::AvgPool],
    );
    net.push(
        ConvLayer::builder("fc")
            .channels(1280, 1000)
            .build()
            .expect("fc"),
        &[],
    );
    net
}

/// ResNet-50 at 224×224: bottleneck blocks (1×1 reduce, 3×3, 1×1
/// expand ×4) in stages of 3/4/6/3, with projection shortcuts at every
/// stage entry. 53 convolutions + classifier.
pub fn resnet50() -> Network {
    let mut net = Network::new("ResNet50");
    net.push(
        conv("conv1", 224, 3, 64, 7, 2, 3),
        &[PostOp::BatchNorm, PostOp::Relu, PostOp::MaxPool],
    );
    // (blocks, bottleneck width, output hw)
    let stages: [(u32, u64, u64); 4] = [(3, 64, 56), (4, 128, 28), (6, 256, 14), (3, 512, 7)];
    let mut cin: u64 = 64;
    for (si, &(blocks, width, hw)) in stages.iter().enumerate() {
        let s = si + 1;
        let cout = width * 4;
        for b in 1..=blocks {
            let first = b == 1;
            let stride = if first && s > 1 { 2 } else { 1 };
            let in_hw = if stride == 2 { hw * 2 } else { hw };
            net.push(
                conv(&format!("l{s}b{b}c1"), in_hw, cin, width, 1, 1, 0),
                &[PostOp::BatchNorm, PostOp::Relu],
            );
            net.push(
                conv(&format!("l{s}b{b}c2"), in_hw, width, width, 3, stride, 1),
                &[PostOp::BatchNorm, PostOp::Relu],
            );
            net.push(
                conv(&format!("l{s}b{b}c3"), hw, width, cout, 1, 1, 0),
                &[PostOp::BatchNorm, PostOp::ResidualAdd],
            );
            if first {
                net.push(
                    conv(&format!("l{s}ds"), in_hw, cin, cout, 1, stride, 0),
                    &[PostOp::BatchNorm, PostOp::ResidualAdd],
                );
            }
            cin = cout;
        }
    }
    net.push(
        ConvLayer::builder("fc")
            .channels(2048, 1000)
            .build()
            .expect("fc"),
        &[],
    );
    net
}

/// VGG-16 at 224×224: 13 convolutions in five pooled blocks plus the
/// three-layer classifier. Not part of the paper's evaluation set, but
/// the canonical high-reuse workload for DSE users (its long
/// same-resolution conv chains form deep coupled segments).
pub fn vgg16() -> Network {
    let mut net = Network::new("VGG16");
    // (convs in block, channels, input hw)
    let blocks: [(u32, u64, u64); 5] = [
        (2, 64, 224),
        (2, 128, 112),
        (3, 256, 56),
        (3, 512, 28),
        (3, 512, 14),
    ];
    let mut cin = 3;
    for (bi, &(n, ch, hw)) in blocks.iter().enumerate() {
        for c in 1..=n {
            let last = c == n;
            let post: &[PostOp] = if last {
                &[PostOp::Relu, PostOp::MaxPool]
            } else {
                &[PostOp::Relu]
            };
            net.push(
                conv(&format!("b{}c{}", bi + 1, c), hw, cin, ch, 3, 1, 1),
                post,
            );
            cin = ch;
        }
    }
    net.push(
        ConvLayer::builder("fc6")
            .channels(512 * 7 * 7, 4096)
            .build()
            .expect("fc6"),
        &[PostOp::Relu],
    );
    net.push(
        ConvLayer::builder("fc7")
            .channels(4096, 4096)
            .build()
            .expect("fc7"),
        &[PostOp::Relu],
    );
    net.push(
        ConvLayer::builder("fc8")
            .channels(4096, 1000)
            .build()
            .expect("fc8"),
        &[],
    );
    net
}

/// A fully-connected chain (`depth` layers of `width → width`), the
/// matrix-multiply-only workload shape of transformer feed-forward
/// stacks. Exercises the FC path of the AuthBlock engine: coupled
/// tensors are channel vectors rather than feature-map planes.
pub fn mlp(depth: usize, width: u64) -> Network {
    assert!(depth > 0 && width > 0, "mlp needs positive depth and width");
    let mut net = Network::new(format!("MLP-{depth}x{width}"));
    for i in 0..depth {
        let post: &[PostOp] = if i + 1 < depth { &[PostOp::Relu] } else { &[] };
        net.push(
            ConvLayer::builder(format!("fc{i}"))
                .channels(width, width)
                .build()
                .expect("fc layer"),
            post,
        );
    }
    net
}

/// A token-wise projection (`d_in → d_out` applied at every one of
/// `seq` positions), expressed as a 1×1 convolution over a `seq × 1`
/// feature map: the token axis becomes the spatial `P` dimension, so
/// off-chip AuthBlock regions are tall-and-skinny `seq × 1` planes —
/// the attention-shaped geometry the congruence solver must handle.
fn token_proj(name: &str, seq: u64, d_in: u64, d_out: u64) -> ConvLayer {
    ConvLayer::builder(name)
        .input_hw(seq, 1)
        .channels(d_in, d_out)
        .kernel(1, 1)
        .build()
        .unwrap_or_else(|e| panic!("zoo layer {name}: {e}"))
}

/// Push one transformer encoder block onto `net`: Q/K/V projections
/// (each feeding the attention matmul — a separate pass, so a
/// [`PostOp::Softmax`] boundary), the output projection
/// ([`PostOp::LayerNorm`] boundary, which also stands in for the
/// residual add), and the two feed-forward projections (`d → 4d → d`)
/// whose activation keeps them a coupled FC pair.
fn push_attention_block(net: &mut Network, prefix: &str, seq: u64, d_model: u64) {
    for proj in ["q", "k", "v"] {
        net.push(
            token_proj(&format!("{prefix}{proj}_proj"), seq, d_model, d_model),
            &[PostOp::Softmax],
        );
    }
    net.push(
        token_proj(&format!("{prefix}out_proj"), seq, d_model, d_model),
        &[PostOp::LayerNorm],
    );
    net.push(
        token_proj(&format!("{prefix}ffn_up"), seq, d_model, 4 * d_model),
        &[PostOp::Relu],
    );
    net.push(
        token_proj(&format!("{prefix}ffn_down"), seq, 4 * d_model, d_model),
        &[PostOp::LayerNorm],
    );
}

/// One transformer encoder block over `seq` tokens of width `d_model`
/// (six projection layers; see `push_attention_block` for the
/// boundary structure). `attention(128, 512)` is a BERT-base-shaped
/// block at half width.
pub fn attention(seq: u64, d_model: u64) -> Network {
    assert!(
        seq > 0 && d_model > 0,
        "attention needs positive seq and d_model"
    );
    let mut net = Network::new(format!("Attention-{seq}x{d_model}"));
    push_attention_block(&mut net, "", seq, d_model);
    net
}

/// Single-token LLM decode: the same six projections as [`attention`]
/// but with `seq = 1`, i.e. pure GEMV FC layers (`P = Q = R = S = 1`,
/// the paper's §2.1 FC encoding). The weight tensors dominate every
/// tile — the bandwidth-bound regime of autoregressive decoding.
pub fn llm_decode(d_model: u64) -> Network {
    assert!(d_model > 0, "llm_decode needs positive d_model");
    let fc = |name: &str, cin: u64, cout: u64| {
        ConvLayer::builder(name)
            .channels(cin, cout)
            .build()
            .unwrap_or_else(|e| panic!("zoo layer {name}: {e}"))
    };
    let mut net = Network::new(format!("LLMDecode-{d_model}"));
    for proj in ["q", "k", "v"] {
        net.push(
            fc(&format!("{proj}_proj"), d_model, d_model),
            &[PostOp::Softmax],
        );
    }
    net.push(fc("out_proj", d_model, d_model), &[PostOp::LayerNorm]);
    net.push(fc("ffn_up", d_model, 4 * d_model), &[PostOp::Relu]);
    net.push(fc("ffn_down", 4 * d_model, d_model), &[PostOp::LayerNorm]);
    net
}

/// ViT-Tiny front: 16×16 patch embedding of a 224×224 RGB image into
/// 192 channels (a stride-16 conv producing a 14×14 token grid),
/// followed by `blocks` encoder blocks over the 196-token sequence.
pub fn vit_tiny(blocks: u32) -> Network {
    assert!(blocks > 0, "vit_tiny needs at least one encoder block");
    let d = 192;
    let mut net = Network::new(format!("ViT-Tiny-{blocks}b"));
    net.push(
        ConvLayer::builder("patch_embed")
            .input_hw(224, 224)
            .channels(3, d)
            .kernel(16, 16)
            .stride(16)
            .build()
            .expect("patch_embed"),
        &[PostOp::LayerNorm],
    );
    let seq = 14 * 14;
    for b in 1..=blocks {
        push_attention_block(&mut net, &format!("b{b}_"), seq, d);
    }
    net
}

/// A DeepLab-style context-aggregation head: a stack of 3×3
/// convolutions at exponentially growing dilation (1, 2, 4, …), each
/// padded to preserve resolution. Dilation spreads every tile's halo
/// across `2·dilation` extra rows, stressing the overlap counting.
pub fn dilated_context(hw: u64, channels: u64, depth: u32) -> Network {
    assert!(
        hw > 0 && channels > 0 && depth > 0,
        "dilated_context needs positive hw, channels and depth"
    );
    let mut net = Network::new(format!("DilatedCtx-{hw}x{channels}x{depth}"));
    let mut cin = 3;
    for i in 0..depth {
        let dilation = 1u64 << i.min(4);
        net.push(
            ConvLayer::builder(format!("ctx{i}_d{dilation}"))
                .input_hw(hw, hw)
                .channels(cin, channels)
                .kernel(3, 3)
                .pad(dilation)
                .dilation(dilation)
                .build()
                .unwrap_or_else(|e| panic!("zoo layer ctx{i}: {e}")),
            &[PostOp::BatchNorm, PostOp::Relu],
        );
        cin = channels;
    }
    net
}

/// One ResNeXt stage: `blocks` bottlenecks of 1×1 reduce → grouped
/// 3×3 (cardinality `groups`) → 1×1 expand, at resolution `hw` with
/// bottleneck width `width` and output width `4·width`.
pub fn resnext_stage(hw: u64, width: u64, groups: u64, blocks: u32) -> Network {
    assert!(
        hw > 0 && width > 0 && groups > 0 && blocks > 0,
        "resnext_stage needs positive parameters"
    );
    let cout = 4 * width;
    let mut net = Network::new(format!("ResNeXtStage-{hw}x{width}g{groups}"));
    let mut cin = width * 2;
    for b in 1..=blocks {
        net.push(
            conv(&format!("b{b}c1"), hw, cin, width, 1, 1, 0),
            &[PostOp::BatchNorm, PostOp::Relu],
        );
        net.push(
            ConvLayer::builder(format!("b{b}c2"))
                .input_hw(hw, hw)
                .channels(width, width)
                .kernel(3, 3)
                .pad(1)
                .groups(groups)
                .build()
                .unwrap_or_else(|e| panic!("zoo layer b{b}c2: {e}")),
            &[PostOp::BatchNorm, PostOp::Relu],
        );
        net.push(
            conv(&format!("b{b}c3"), hw, width, cout, 1, 1, 0),
            &[PostOp::BatchNorm, PostOp::ResidualAdd],
        );
        cin = cout;
    }
    net
}

/// The first five layers of AlexNet with the *historical* 2-way
/// grouping on conv2/conv4/conv5 (the dual-GPU split of the original
/// network), in contrast to [`alexnet_conv`]'s conventional ungrouped
/// modelling. Grouping halves those layers' weights and MACs.
pub fn alexnet_conv_grouped() -> Network {
    let grouped = |name: &str, hw: u64, cin: u64, cout: u64, k: u64, pad: u64| {
        ConvLayer::builder(name)
            .input_hw(hw, hw)
            .channels(cin, cout)
            .kernel(k, k)
            .pad(pad)
            .groups(2)
            .build()
            .unwrap_or_else(|e| panic!("zoo layer {name}: {e}"))
    };
    let mut net = Network::new("AlexNet-grouped");
    net.push(
        conv("conv1", 227, 3, 96, 11, 4, 0),
        &[PostOp::Relu, PostOp::MaxPool],
    );
    net.push(
        grouped("conv2", 27, 96, 256, 5, 2),
        &[PostOp::Relu, PostOp::MaxPool],
    );
    net.push(conv("conv3", 13, 256, 384, 3, 1, 1), &[PostOp::Relu]);
    net.push(grouped("conv4", 13, 384, 384, 3, 1), &[PostOp::Relu]);
    net.push(
        grouped("conv5", 13, 384, 256, 3, 1),
        &[PostOp::Relu, PostOp::MaxPool],
    );
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::{Datatype, Dim};

    #[test]
    fn alexnet_has_five_convs_three_segments() {
        let net = alexnet_conv();
        assert_eq!(net.len(), 5);
        let segs = net.segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[2].layers, vec![2, 3, 4]);
        // Published AlexNet conv MAC count is ~0.65 GMACs for ungrouped
        // conv2/4/5 variants; sanity-check the order of magnitude.
        let g = net.total_macs() as f64 / 1e9;
        assert!(g > 0.5 && g < 1.3, "AlexNet GMACs = {g}");
    }

    #[test]
    fn alexnet_conv2_consumes_pooled_fmap() {
        let net = alexnet_conv();
        let conv2 = &net.layers()[1];
        assert_eq!(conv2.ifmap_height(), 27);
        assert_eq!(conv2.dim(Dim::P), 27);
    }

    #[test]
    fn resnet18_structure() {
        let net = resnet18();
        // 1 stem + 16 block convs + 3 downsamples + 1 fc = 21.
        assert_eq!(net.len(), 21);
        // Every residual add must split a segment: no segment crosses an add.
        for seg in net.segments() {
            for &i in &seg.layers[..seg.layers.len() - 1] {
                assert!(net.post_ops(i).iter().all(|op| op.is_fusable()));
            }
        }
        // Published ResNet-18 is ~1.8 GMACs.
        let g = net.total_macs() as f64 / 1e9;
        assert!(g > 1.5 && g < 2.1, "ResNet18 GMACs = {g}");
    }

    #[test]
    fn resnet18_spatial_chain_is_consistent() {
        let net = resnet18();
        // l2b1c1 halves 56 -> 28.
        let l = net.layers().iter().find(|l| l.name() == "l2b1c1").unwrap();
        // Effective (fetched) ifmap height: floor division leaves one
        // nominal input row unread.
        assert_eq!(l.ifmap_height(), 55);
        assert_eq!(l.dim(Dim::P), 28);
        let ds = net.layers().iter().find(|l| l.name() == "l2ds").unwrap();
        assert_eq!(ds.dim(Dim::P), 28);
        assert_eq!(ds.dim(Dim::R), 1);
    }

    #[test]
    fn mobilenet_v2_structure() {
        let net = mobilenet_v2();
        // conv0 + blocks(2 + 16*3) + conv_last + fc = 1 + 50 + 1 + 1 = 53.
        assert_eq!(net.len(), 53);
        // Published MobileNetV2 is ~0.3 GMACs.
        let g = net.total_macs() as f64 / 1e9;
        assert!(g > 0.25 && g < 0.40, "MobileNetV2 GMACs = {g}");
        // Depthwise layers present and marked.
        let dw = net.layers().iter().filter(|l| l.depthwise()).count();
        assert_eq!(dw, 17);
        // Final feature map is 7x7x1280.
        let last = net
            .layers()
            .iter()
            .find(|l| l.name() == "conv_last")
            .unwrap();
        assert_eq!(last.dim(Dim::P), 7);
        assert_eq!(last.dim(Dim::M), 1280);
        assert_eq!(last.tensor_elems(Datatype::Ofmap), 7 * 7 * 1280);
    }

    #[test]
    fn mobilenet_v2_has_long_coupled_chains() {
        let net = mobilenet_v2();
        let longest = net
            .segments()
            .into_iter()
            .map(|s| s.layers.len())
            .max()
            .unwrap();
        // Stride-2 / channel-changing blocks chain together without
        // boundaries, giving the deep coupled runs the paper exploits.
        assert!(longest >= 6, "longest segment = {longest}");
    }

    #[test]
    fn mobilenet_residual_blocks_end_segments() {
        let net = mobilenet_v2();
        let adds = (0..net.len())
            .filter(|&i| net.post_ops(i).contains(&PostOp::ResidualAdd))
            .count();
        // Residual blocks: 1 (c24) + 2 (c32) + 3 (c64) + 2 (c96) + 2 (c160) = 10.
        assert_eq!(adds, 10);
    }

    #[test]
    fn resnet50_structure() {
        let net = resnet50();
        // 1 stem + 16 blocks x 3 + 4 downsamples + 1 fc = 54.
        assert_eq!(net.len(), 54);
        // Published ResNet-50 is ~4.1 GMACs.
        let g = net.total_macs() as f64 / 1e9;
        assert!(g > 3.5 && g < 4.6, "ResNet50 GMACs = {g}");
        // Bottleneck expansion: final features are 2048-wide.
        let last = net.layers().iter().find(|l| l.name() == "l4b3c3").unwrap();
        assert_eq!(last.dim(Dim::M), 2048);
        assert_eq!(last.dim(Dim::P), 7);
    }

    #[test]
    fn vgg16_structure() {
        let net = vgg16();
        assert_eq!(net.len(), 16);
        // Conv MACs ~15.3 G; fc adds ~0.12 G.
        let g = net.total_macs() as f64 / 1e9;
        assert!(g > 14.0 && g < 17.0, "VGG16 GMACs = {g}");
        // Five pool boundaries then the fused fc chain = 6 segments.
        assert_eq!(net.segments().len(), 6);
        // Deep coupled chains inside blocks 3-5.
        let longest = net.segments().iter().map(|s| s.layers.len()).max().unwrap();
        assert!(longest >= 3);
    }

    #[test]
    fn mlp_is_a_coupled_fc_chain() {
        let net = mlp(4, 1024);
        assert_eq!(net.len(), 4);
        assert_eq!(net.segments().len(), 1, "ReLU keeps the chain fusable");
        for l in net.layers() {
            assert_eq!(l.dim(Dim::P), 1);
            assert_eq!(l.macs(), 1024 * 1024);
        }
    }

    #[test]
    #[should_panic(expected = "positive depth")]
    fn empty_mlp_rejected() {
        let _ = mlp(0, 128);
    }

    #[test]
    fn attention_block_structure() {
        let net = attention(128, 512);
        assert_eq!(net.len(), 6);
        // q/k/v/out each end a segment; ffn_up+ffn_down stay coupled.
        let segs = net.segments();
        assert_eq!(segs.len(), 5);
        assert_eq!(segs[4].layers, vec![4, 5]);
        // Token axis is spatial: tall-and-skinny off-chip planes.
        let q = &net.layers()[0];
        assert_eq!(q.dim(Dim::P), 128);
        assert_eq!(q.dim(Dim::Q), 1);
        assert_eq!(q.dim(Dim::C), 512);
        assert_eq!(q.ifmap_height(), 128);
        // 6 projections: 4 of d·d + up/down of 4d² each = 12·d² weights.
        let w: u64 = net
            .layers()
            .iter()
            .map(|l| l.tensor_elems(Datatype::Weight))
            .sum();
        assert_eq!(w, 12 * 512 * 512);
        assert_eq!(net.total_macs(), 128 * w);
    }

    #[test]
    fn llm_decode_is_pure_fc() {
        let net = llm_decode(1024);
        assert_eq!(net.len(), 6);
        for l in net.layers() {
            assert_eq!(l.dim(Dim::P), 1);
            assert_eq!(l.dim(Dim::Q), 1);
            assert_eq!(l.dim(Dim::R), 1);
            // GEMV: one MAC per weight.
            assert_eq!(l.macs(), l.tensor_elems(Datatype::Weight));
        }
        // fp16 variant doubles the weight bits, not the MACs.
        let fp16 = net.with_word_bits(16);
        assert_eq!(fp16.total_macs(), net.total_macs());
        assert_eq!(
            fp16.layers()[0].tensor_bits(Datatype::Weight),
            2 * net.layers()[0].tensor_bits(Datatype::Weight)
        );
    }

    #[test]
    fn vit_tiny_patch_embedding_makes_tokens() {
        let net = vit_tiny(2);
        assert_eq!(net.len(), 1 + 2 * 6);
        let patch = &net.layers()[0];
        // 224/16 = 14×14 token grid, 192 channels.
        assert_eq!(patch.dim(Dim::P), 14);
        assert_eq!(patch.dim(Dim::Q), 14);
        assert_eq!(patch.dim(Dim::M), 192);
        assert_eq!(patch.dim(Dim::R), 16);
        assert_eq!(patch.stride(), 16);
        // Patch embedding is a boundary (LayerNorm): its own segment.
        assert_eq!(net.segments()[0].layers, vec![0]);
        // Encoder projections run over the 196-token sequence.
        let q = &net.layers()[1];
        assert_eq!(q.dim(Dim::P), 196);
        assert_eq!(q.dim(Dim::Q), 1);
    }

    #[test]
    fn dilated_context_preserves_resolution() {
        let net = dilated_context(56, 64, 4);
        assert_eq!(net.len(), 4);
        for (i, l) in net.layers().iter().enumerate() {
            assert_eq!(l.dilation(), 1 << i, "{}", l.name());
            assert_eq!(l.dim(Dim::P), 56, "{}", l.name());
            assert_eq!(l.dim(Dim::Q), 56, "{}", l.name());
        }
        // One fully-fusable chain: BatchNorm/ReLU throughout.
        assert_eq!(net.segments().len(), 1);
    }

    #[test]
    fn resnext_stage_grouping() {
        let net = resnext_stage(28, 128, 32, 2);
        assert_eq!(net.len(), 6);
        let g = net.layers().iter().find(|l| l.name() == "b1c2").unwrap();
        assert_eq!(g.groups(), 32);
        assert_eq!(g.dim(Dim::C), 128 / 32);
        assert_eq!(g.ifmap_channels(), 128);
        // Grouped 3×3 has 32× fewer weights than its dense equivalent.
        assert_eq!(g.tensor_elems(Datatype::Weight), 128 * 4 * 9);
        // Residual adds split each block.
        assert_eq!(net.segments().len(), 2);
    }

    #[test]
    fn grouped_alexnet_halves_grouped_layer_macs() {
        let dense = alexnet_conv();
        let grouped = alexnet_conv_grouped();
        assert_eq!(grouped.len(), dense.len());
        for (d, g) in dense.layers().iter().zip(grouped.layers()) {
            match g.name() {
                "conv2" | "conv4" | "conv5" => {
                    assert_eq!(g.groups(), 2);
                    assert_eq!(2 * g.macs(), d.macs(), "{}", g.name());
                    assert_eq!(
                        2 * g.tensor_elems(Datatype::Weight),
                        d.tensor_elems(Datatype::Weight)
                    );
                    // Same activations either way.
                    assert_eq!(
                        g.tensor_elems(Datatype::Ifmap),
                        d.tensor_elems(Datatype::Ifmap)
                    );
                    assert_eq!(
                        g.tensor_elems(Datatype::Ofmap),
                        d.tensor_elems(Datatype::Ofmap)
                    );
                }
                _ => {
                    assert_eq!(g.groups(), 1);
                    assert_eq!(g.macs(), d.macs());
                }
            }
        }
        // Historical grouped AlexNet: ~0.58 of the ungrouped MACs.
        assert!(grouped.total_macs() < dense.total_macs());
    }

    #[test]
    fn all_zoo_layers_have_positive_dims() {
        for net in [
            alexnet_conv(),
            alexnet_conv_grouped(),
            resnet18(),
            mobilenet_v2(),
            vgg16(),
            mlp(3, 256),
            attention(64, 256),
            llm_decode(512),
            vit_tiny(1),
            dilated_context(28, 32, 3),
            resnext_stage(14, 64, 16, 1),
        ] {
            for l in net.layers() {
                assert!(l.macs() > 0, "{}", l.name());
                for dt in Datatype::ALL {
                    assert!(l.tensor_elems(dt) > 0);
                }
            }
        }
    }
}
