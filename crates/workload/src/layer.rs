//! Convolutional layer shapes.

use std::fmt;

use crate::dims::{Datatype, Dim, DimMap};

/// Error returned when a layer description is geometrically inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerShapeError(String);

impl fmt::Display for LayerShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid layer shape: {}", self.0)
    }
}

impl std::error::Error for LayerShapeError {}

/// A convolutional (or fully-connected) layer (paper Fig. 1a).
///
/// The layer is stored as the seven loop bounds plus stride and padding.
/// The input feature-map spatial extent is derived:
/// `H_in = (P − 1)·stride + R − 2·pad` (and likewise for width), i.e. the
/// usual relation `P = (H_in − R + 2·pad)/stride + 1` from the paper's
/// footnote 1.
///
/// Fully-connected layers set `P = Q = R = S = 1` and use `M`/`C` as the
/// output/input vector sizes (paper §2.1).
///
/// Depthwise layers (MobileNetV2) are marked with [`ConvLayer::depthwise`]:
/// the loop bounds carry `C = 1` and `M` = channel count, and the ifmap is
/// indexed by `M` instead of `C`.
///
/// Grouped convolutions (AlexNet's original conv2/4/5, ResNeXt) carry
/// [`ConvLayer::groups`] `> 1`: the loop bound `C` is the *per-group*
/// input channel count `C_in / g`, the ifmap holds all `C_in` channels,
/// and each output channel reads only its own group's slice — so `M`
/// becomes relevant to ifmap indexing, like the depthwise special case
/// (`g = C_in`). MACs and weight footprints shrink by `g` automatically
/// because they are products over the loop bounds.
///
/// Dilated convolutions (DeepLab-style context modules) carry
/// [`ConvLayer::dilation`] `> 1`: the filter taps are spaced `dilation`
/// elements apart, so the effective receptive extent is
/// `(R − 1)·dilation + 1` and every input-geometry relation uses that in
/// place of `R`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvLayer {
    name: String,
    bounds: DimMap<u64>,
    stride: u64,
    pad: u64,
    depthwise: bool,
    /// Convolution groups (1 = dense). `C` holds the per-group input
    /// channel count.
    groups: u64,
    /// Filter-tap spacing (1 = ordinary convolution).
    dilation: u64,
    /// Bits per data word (paper evaluation uses 8-bit words).
    word_bits: u32,
}

impl ConvLayer {
    /// Start building a layer with the given name.
    pub fn builder(name: impl Into<String>) -> ConvLayerBuilder {
        ConvLayerBuilder::new(name)
    }

    /// Layer name (unique within a [`Network`](crate::Network)).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The loop bound of dimension `d`.
    #[inline]
    pub fn dim(&self, d: Dim) -> u64 {
        self.bounds[d]
    }

    /// All seven loop bounds.
    pub fn bounds(&self) -> DimMap<u64> {
        self.bounds
    }

    /// Convolution stride (same in both spatial axes).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Zero padding (same on all sides).
    pub fn pad(&self) -> u64 {
        self.pad
    }

    /// Whether this is a depthwise convolution.
    pub fn depthwise(&self) -> bool {
        self.depthwise
    }

    /// Number of convolution groups (1 = dense, ungrouped).
    pub fn groups(&self) -> u64 {
        self.groups
    }

    /// Filter-tap spacing (1 = ordinary convolution).
    pub fn dilation(&self) -> u64 {
        self.dilation
    }

    /// Bits per data word.
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Effective filter row extent `(R − 1)·dilation + 1`: the input
    /// rows a single filter application spans.
    pub fn kernel_extent_h(&self) -> u64 {
        (self.dim(Dim::R) - 1) * self.dilation + 1
    }

    /// Effective filter column extent `(S − 1)·dilation + 1`.
    pub fn kernel_extent_w(&self) -> u64 {
        (self.dim(Dim::S) - 1) * self.dilation + 1
    }

    /// Input feature-map height `H_in = (P−1)·stride + (R−1)·dilation + 1 − 2·pad`.
    pub fn ifmap_height(&self) -> u64 {
        (self.dim(Dim::P) - 1) * self.stride + self.kernel_extent_h() - 2 * self.pad
    }

    /// Input feature-map width `W_in = (Q−1)·stride + (S−1)·dilation + 1 − 2·pad`.
    pub fn ifmap_width(&self) -> u64 {
        (self.dim(Dim::Q) - 1) * self.stride + self.kernel_extent_w() - 2 * self.pad
    }

    /// Number of input channels as seen by the ifmap tensor.
    ///
    /// For depthwise layers the loop-bound `C` is 1 but the ifmap actually
    /// has `M` channels (one per group); for grouped layers it has
    /// `groups·C` channels.
    pub fn ifmap_channels(&self) -> u64 {
        if self.depthwise {
            self.dim(Dim::M)
        } else {
            self.groups * self.dim(Dim::C)
        }
    }

    /// Input channels touched by a tile covering `m_tile` output
    /// channels and `c_tile` loop-bound-`C` values.
    ///
    /// Dense layers touch `c_tile` channels regardless of `m_tile`;
    /// depthwise layers touch `m_tile` (one per output channel). Grouped
    /// layers touch `c_tile` per intersected group, assuming group-aligned
    /// output-channel tiling (tiles either stay inside one group or span
    /// whole groups — how schedulers tile grouped convolutions in
    /// practice).
    pub fn ifmap_tile_channels(&self, m_tile: u64, c_tile: u64) -> u64 {
        if self.depthwise {
            return m_tile;
        }
        if self.groups == 1 {
            return c_tile;
        }
        let per_group_m = self.dim(Dim::M) / self.groups;
        let spanned = m_tile.div_ceil(per_group_m).min(self.groups);
        (spanned * c_tile).min(self.ifmap_channels())
    }

    /// Total multiply-accumulate operations.
    pub fn macs(&self) -> u64 {
        self.bounds.product()
    }

    /// Dimensions relevant to `dt` for *this* layer (accounts for
    /// depthwise and grouped ifmap indexing: `M` selects the group).
    pub fn relevant_dims(&self, dt: Datatype) -> Vec<Dim> {
        let mut dims: Vec<Dim> = dt.relevant_dims().to_vec();
        if (self.depthwise || self.groups > 1) && dt == Datatype::Ifmap {
            dims.push(Dim::M);
        }
        dims
    }

    /// Whether `dim` indexes a distinct element of `dt` in this layer.
    pub fn is_relevant(&self, dt: Datatype, dim: Dim) -> bool {
        if (self.depthwise || self.groups > 1) && dt == Datatype::Ifmap && dim == Dim::M {
            return true;
        }
        dt.is_relevant(dim)
    }

    /// Number of elements in the given tensor (padding excluded for the
    /// ifmap: only real data is stored off-chip).
    pub fn tensor_elems(&self, dt: Datatype) -> u64 {
        match dt {
            Datatype::Weight => {
                self.dim(Dim::M) * self.dim(Dim::C) * self.dim(Dim::R) * self.dim(Dim::S)
            }
            Datatype::Ifmap => {
                self.dim(Dim::N) * self.ifmap_channels() * self.ifmap_height() * self.ifmap_width()
            }
            Datatype::Ofmap => {
                self.dim(Dim::N) * self.dim(Dim::M) * self.dim(Dim::P) * self.dim(Dim::Q)
            }
        }
    }

    /// Tensor size in bits.
    pub fn tensor_bits(&self, dt: Datatype) -> u64 {
        self.tensor_elems(dt) * u64::from(self.word_bits)
    }

    /// A copy of this layer with a different batch size (the paper
    /// evaluates batch 1; batching multiplies weight reuse).
    pub fn with_batch(&self, n: u64) -> ConvLayer {
        assert!(n > 0, "batch must be positive");
        let mut out = self.clone();
        out.bounds[Dim::N] = n;
        out
    }

    /// A copy of this layer with a different word width (int8 vs fp16
    /// precision sweeps: word width scales every tensor and crypto bit
    /// count).
    pub fn with_word_bits(&self, bits: u32) -> ConvLayer {
        assert!(bits > 0, "word width must be positive");
        let mut out = self.clone();
        out.word_bits = bits;
        out
    }

    /// Elements of the im2col-expanded ifmap matrix: a matrix-multiply
    /// accelerator (paper Fig. 5b) lowers the convolution to a
    /// `(C·R·S) × (P·Q)` matrix in which every sliding-window element
    /// is duplicated. Tiles of that matrix never overlap (no halos),
    /// at the cost of an `R·S/stride²`-fold larger footprint.
    pub fn im2col_ifmap_elems(&self) -> u64 {
        self.dim(Dim::N)
            * self.ifmap_channels()
            * self.dim(Dim::R)
            * self.dim(Dim::S)
            * self.dim(Dim::P)
            * self.dim(Dim::Q)
    }

    /// The im2col data-duplication factor relative to the direct-conv
    /// ifmap footprint.
    pub fn im2col_duplication(&self) -> f64 {
        self.im2col_ifmap_elems() as f64 / self.tensor_elems(Datatype::Ifmap) as f64
    }

    /// Arithmetic intensity against compulsory off-chip traffic:
    /// `2·MACs / bytes(weight + ifmap + ofmap)` — used by the roofline
    /// model (paper Fig. 12).
    pub fn ideal_intensity(&self) -> f64 {
        let bytes: u64 = Datatype::ALL
            .iter()
            .map(|&dt| self.tensor_bits(dt) / 8)
            .sum();
        (2 * self.macs()) as f64 / bytes as f64
    }
}

impl fmt::Display for ConvLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: N{} M{} C{} P{} Q{} R{} S{} stride{} pad{}{}",
            self.name,
            self.dim(Dim::N),
            self.dim(Dim::M),
            self.dim(Dim::C),
            self.dim(Dim::P),
            self.dim(Dim::Q),
            self.dim(Dim::R),
            self.dim(Dim::S),
            self.stride,
            self.pad,
            if self.depthwise { " (dw)" } else { "" },
        )?;
        if self.groups > 1 {
            write!(f, " g{}", self.groups)?;
        }
        if self.dilation > 1 {
            write!(f, " d{}", self.dilation)?;
        }
        Ok(())
    }
}

/// Builder for [`ConvLayer`] starting from the *input* geometry, the way
/// model definitions are usually written.
#[derive(Debug, Clone)]
pub struct ConvLayerBuilder {
    name: String,
    input_h: u64,
    input_w: u64,
    in_channels: u64,
    out_channels: u64,
    r: u64,
    s: u64,
    stride: u64,
    pad: u64,
    batch: u64,
    depthwise: bool,
    groups: u64,
    dilation: u64,
    word_bits: u32,
}

impl ConvLayerBuilder {
    fn new(name: impl Into<String>) -> Self {
        ConvLayerBuilder {
            name: name.into(),
            input_h: 1,
            input_w: 1,
            in_channels: 1,
            out_channels: 1,
            r: 1,
            s: 1,
            stride: 1,
            pad: 0,
            batch: 1,
            depthwise: false,
            groups: 1,
            dilation: 1,
            word_bits: 8,
        }
    }

    /// Input feature-map spatial extent.
    pub fn input_hw(mut self, h: u64, w: u64) -> Self {
        self.input_h = h;
        self.input_w = w;
        self
    }

    /// Input and output channel counts.
    pub fn channels(mut self, cin: u64, cout: u64) -> Self {
        self.in_channels = cin;
        self.out_channels = cout;
        self
    }

    /// Filter extent `R × S`.
    pub fn kernel(mut self, r: u64, s: u64) -> Self {
        self.r = r;
        self.s = s;
        self
    }

    /// Convolution stride.
    pub fn stride(mut self, st: u64) -> Self {
        self.stride = st;
        self
    }

    /// Zero padding on every side.
    pub fn pad(mut self, p: u64) -> Self {
        self.pad = p;
        self
    }

    /// Batch size (default 1).
    pub fn batch(mut self, n: u64) -> Self {
        self.batch = n;
        self
    }

    /// Mark as depthwise: `channels(c, c)` with each output channel reading
    /// only its own input channel.
    pub fn depthwise(mut self) -> Self {
        self.depthwise = true;
        self
    }

    /// Split the convolution into `g` groups: each output channel reads
    /// only the `cin/g` input channels of its group (AlexNet's original
    /// conv2/4/5, ResNeXt). `g = 1` is the dense default; depthwise is
    /// the `g = cin` extreme and keeps its dedicated
    /// [`ConvLayerBuilder::depthwise`] encoding.
    pub fn groups(mut self, g: u64) -> Self {
        self.groups = g;
        self
    }

    /// Space the filter taps `d` elements apart (dilated / atrous
    /// convolution); the effective receptive extent becomes
    /// `(R − 1)·d + 1`.
    pub fn dilation(mut self, d: u64) -> Self {
        self.dilation = d;
        self
    }

    /// Bits per data word (default 8).
    pub fn word_bits(mut self, bits: u32) -> Self {
        self.word_bits = bits;
        self
    }

    /// Build a fully-connected layer: `P=Q=R=S=1`.
    pub fn fully_connected(name: impl Into<String>, cin: u64, cout: u64) -> ConvLayer {
        ConvLayerBuilder::new(name)
            .channels(cin, cout)
            .build()
            .expect("FC layer shapes are always valid")
    }

    /// Validate and produce the layer.
    ///
    /// # Errors
    ///
    /// Returns [`LayerShapeError`] when the geometry is inconsistent, e.g.
    /// the padded input is smaller than the kernel, the stride does not
    /// evenly produce an integral output size, or a depthwise layer has
    /// mismatched channel counts.
    pub fn build(self) -> Result<ConvLayer, LayerShapeError> {
        if self.stride == 0 {
            return Err(LayerShapeError("stride must be positive".into()));
        }
        if self.dilation == 0 {
            return Err(LayerShapeError("dilation must be positive".into()));
        }
        if self.groups == 0 {
            return Err(LayerShapeError("groups must be positive".into()));
        }
        // Effective (dilated) filter extent.
        let r_eff = (self.r - 1) * self.dilation + 1;
        let s_eff = (self.s - 1) * self.dilation + 1;
        let padded_h = self.input_h + 2 * self.pad;
        let padded_w = self.input_w + 2 * self.pad;
        if padded_h < r_eff || padded_w < s_eff {
            return Err(LayerShapeError(format!(
                "effective kernel {r_eff}x{s_eff} larger than padded input {padded_h}x{padded_w}"
            )));
        }
        // Output size uses floor division, as in real frameworks; when the
        // stride does not evenly tile the input, the trailing rows/columns
        // are simply never read and the *effective* ifmap extent derived by
        // [`ConvLayer::ifmap_height`] is what the accelerator fetches.
        if self.depthwise && self.in_channels != self.out_channels {
            return Err(LayerShapeError(format!(
                "depthwise layer must have cin == cout, got {} != {}",
                self.in_channels, self.out_channels
            )));
        }
        if self.depthwise && self.groups > 1 {
            return Err(LayerShapeError(
                "depthwise layers already group per channel; use one of \
                 depthwise() or groups(g)"
                    .into(),
            ));
        }
        if !self.in_channels.is_multiple_of(self.groups)
            || !self.out_channels.is_multiple_of(self.groups)
        {
            return Err(LayerShapeError(format!(
                "groups {} must divide both cin {} and cout {}",
                self.groups, self.in_channels, self.out_channels
            )));
        }
        let p = (padded_h - r_eff) / self.stride + 1;
        let q = (padded_w - s_eff) / self.stride + 1;
        let mut bounds = DimMap::splat(1u64);
        bounds[Dim::N] = self.batch;
        bounds[Dim::M] = self.out_channels;
        bounds[Dim::C] = if self.depthwise {
            1
        } else {
            self.in_channels / self.groups
        };
        bounds[Dim::P] = p;
        bounds[Dim::Q] = q;
        bounds[Dim::R] = self.r;
        bounds[Dim::S] = self.s;
        if bounds.0.contains(&0) {
            return Err(LayerShapeError("all loop bounds must be positive".into()));
        }
        Ok(ConvLayer {
            name: self.name,
            bounds,
            stride: self.stride,
            pad: self.pad,
            depthwise: self.depthwise,
            groups: self.groups,
            dilation: self.dilation,
            word_bits: self.word_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alexnet_conv1() -> ConvLayer {
        ConvLayer::builder("conv1")
            .input_hw(227, 227)
            .channels(3, 96)
            .kernel(11, 11)
            .stride(4)
            .build()
            .unwrap()
    }

    #[test]
    fn alexnet_conv1_shape() {
        let l = alexnet_conv1();
        assert_eq!(l.dim(Dim::P), 55);
        assert_eq!(l.dim(Dim::Q), 55);
        assert_eq!(l.ifmap_height(), 227);
        assert_eq!(l.tensor_elems(Datatype::Weight), 96 * 3 * 11 * 11);
        assert_eq!(l.tensor_elems(Datatype::Ofmap), 96 * 55 * 55);
        assert_eq!(l.tensor_elems(Datatype::Ifmap), 3 * 227 * 227);
        assert_eq!(l.macs(), 96 * 3 * 55 * 55 * 11 * 11);
    }

    #[test]
    fn padded_layer_derives_input() {
        // ResNet 3x3 pad-1 conv keeps spatial size.
        let l = ConvLayer::builder("c")
            .input_hw(56, 56)
            .channels(64, 64)
            .kernel(3, 3)
            .pad(1)
            .build()
            .unwrap();
        assert_eq!(l.dim(Dim::P), 56);
        assert_eq!(l.ifmap_height(), 56);
    }

    #[test]
    fn fc_layer_is_matrix_vector() {
        let l = ConvLayerBuilder::fully_connected("fc", 512, 1000);
        assert_eq!(l.dim(Dim::P), 1);
        assert_eq!(l.dim(Dim::R), 1);
        assert_eq!(l.macs(), 512 * 1000);
        assert_eq!(l.tensor_elems(Datatype::Weight), 512 * 1000);
    }

    #[test]
    fn depthwise_ifmap_indexed_by_m() {
        let l = ConvLayer::builder("dw")
            .input_hw(112, 112)
            .channels(32, 32)
            .kernel(3, 3)
            .pad(1)
            .depthwise()
            .build()
            .unwrap();
        assert_eq!(l.dim(Dim::C), 1);
        assert_eq!(l.ifmap_channels(), 32);
        assert!(l.is_relevant(Datatype::Ifmap, Dim::M));
        assert!(!l.is_relevant(Datatype::Ofmap, Dim::C));
        assert_eq!(l.macs(), 32 * 112 * 112 * 9);
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        assert!(ConvLayer::builder("bad")
            .input_hw(5, 5)
            .kernel(7, 7)
            .build()
            .is_err());
        // Uneven strides are allowed (floor division), matching frameworks.
        let l = ConvLayer::builder("ok")
            .input_hw(6, 6)
            .kernel(3, 3)
            .stride(2)
            .build()
            .unwrap();
        assert_eq!(l.dim(Dim::P), 2);
        assert!(ConvLayer::builder("bad")
            .input_hw(8, 8)
            .channels(4, 8)
            .kernel(3, 3)
            .depthwise()
            .build()
            .is_err());
        assert!(ConvLayer::builder("bad").stride(0).build().is_err());
    }

    #[test]
    fn grouped_conv_shrinks_weights_and_macs() {
        // AlexNet conv2 in its original two-tower (grouped) form.
        let dense = ConvLayer::builder("conv2")
            .input_hw(27, 27)
            .channels(96, 256)
            .kernel(5, 5)
            .pad(2)
            .build()
            .unwrap();
        let grouped = ConvLayer::builder("conv2g")
            .input_hw(27, 27)
            .channels(96, 256)
            .kernel(5, 5)
            .pad(2)
            .groups(2)
            .build()
            .unwrap();
        assert_eq!(grouped.dim(Dim::C), 48);
        assert_eq!(grouped.groups(), 2);
        assert_eq!(grouped.macs() * 2, dense.macs());
        assert_eq!(
            grouped.tensor_elems(Datatype::Weight) * 2,
            dense.tensor_elems(Datatype::Weight)
        );
        // The ifmap still stores all 96 channels.
        assert_eq!(grouped.ifmap_channels(), 96);
        assert_eq!(
            grouped.tensor_elems(Datatype::Ifmap),
            dense.tensor_elems(Datatype::Ifmap)
        );
        // M selects the group, so it is ifmap-relevant.
        assert!(grouped.is_relevant(Datatype::Ifmap, Dim::M));
        assert!(!dense.is_relevant(Datatype::Ifmap, Dim::M));
    }

    #[test]
    fn grouped_tile_channels_span_groups() {
        let l = ConvLayer::builder("g4")
            .input_hw(14, 14)
            .channels(64, 128)
            .kernel(3, 3)
            .pad(1)
            .groups(4)
            .build()
            .unwrap();
        // 32 output channels per group, 16 in-group input channels each.
        assert_eq!(l.ifmap_tile_channels(32, 16), 16);
        assert_eq!(l.ifmap_tile_channels(64, 16), 32);
        assert_eq!(l.ifmap_tile_channels(128, 16), 64);
        // Clamped to the stored channel count.
        assert_eq!(l.ifmap_tile_channels(128, 16), l.ifmap_channels());
        // Dense and depthwise behave as before.
        let dense = ConvLayer::builder("d")
            .input_hw(14, 14)
            .channels(64, 128)
            .kernel(3, 3)
            .pad(1)
            .build()
            .unwrap();
        assert_eq!(dense.ifmap_tile_channels(128, 16), 16);
        let dw = ConvLayer::builder("dw")
            .input_hw(14, 14)
            .channels(64, 64)
            .kernel(3, 3)
            .pad(1)
            .depthwise()
            .build()
            .unwrap();
        assert_eq!(dw.ifmap_tile_channels(8, 1), 8);
    }

    #[test]
    fn dilated_conv_geometry() {
        // 3x3 dilation-2 conv with pad 2 keeps spatial size (effective
        // 5x5 kernel).
        let l = ConvLayer::builder("atrous")
            .input_hw(28, 28)
            .channels(32, 32)
            .kernel(3, 3)
            .pad(2)
            .dilation(2)
            .build()
            .unwrap();
        assert_eq!(l.kernel_extent_h(), 5);
        assert_eq!(l.dim(Dim::P), 28);
        assert_eq!(l.ifmap_height(), 28);
        // MACs unchanged by dilation (still 9 taps).
        assert_eq!(l.macs(), 32 * 32 * 28 * 28 * 9);
        // Effective kernel larger than the padded input is rejected.
        assert!(ConvLayer::builder("bad")
            .input_hw(5, 5)
            .kernel(3, 3)
            .dilation(4)
            .build()
            .is_err());
    }

    #[test]
    fn invalid_group_and_dilation_configs_rejected() {
        assert!(ConvLayer::builder("g0")
            .input_hw(8, 8)
            .channels(4, 4)
            .groups(0)
            .build()
            .is_err());
        assert!(ConvLayer::builder("d0")
            .input_hw(8, 8)
            .channels(4, 4)
            .dilation(0)
            .build()
            .is_err());
        // groups must divide both channel counts.
        assert!(ConvLayer::builder("g3")
            .input_hw(8, 8)
            .channels(4, 8)
            .groups(3)
            .build()
            .is_err());
        // depthwise + groups is contradictory.
        assert!(ConvLayer::builder("dwg")
            .input_hw(8, 8)
            .channels(4, 4)
            .kernel(3, 3)
            .depthwise()
            .groups(2)
            .build()
            .is_err());
    }

    #[test]
    fn word_width_variant_scales_tensor_bits() {
        let l = alexnet_conv1();
        let fp16 = l.with_word_bits(16);
        assert_eq!(fp16.word_bits(), 16);
        assert_eq!(
            fp16.tensor_bits(Datatype::Weight),
            2 * l.tensor_bits(Datatype::Weight)
        );
        assert_eq!(fp16.macs(), l.macs());
    }

    #[test]
    fn intensity_is_positive_and_finite() {
        let l = alexnet_conv1();
        let i = l.ideal_intensity();
        assert!(i > 1.0 && i.is_finite());
    }

    #[test]
    fn display_contains_dims() {
        let s = alexnet_conv1().to_string();
        assert!(s.contains("M96"));
        assert!(s.contains("stride4"));
    }
}
