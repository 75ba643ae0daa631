//! Everything the program under test is fed — weights, calibration
//! data, request rows, prompts, the arrival schedule — derived from the
//! one `--seed`. The program only ever sees generated inputs.

use ant_nn::layer::{Conv2d, Dense, MaxPool2, Relu};
use ant_nn::model::{decoder_block, deep_mlp, transformer_block, NetLayer, Sequential};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;

/// SplitMix64: the benchmark's own generator for schedules and value
/// draws (the tensor helpers carry their own seeded stream).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so `ln` is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// What each input stream of a run is seeded with: distinct streams
/// from one `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Weights = 1,
    Calibration = 2,
    Rows = 3,
    Prompts = 4,
    Arrivals = 5,
    Kernels = 6,
}

/// The seed of one input stream.
pub fn stream_seed(seed: u64, stream: Stream) -> u64 {
    SplitMix64::new(seed ^ ((stream as u64) << 56)).next_u64()
}

/// A `[rows, features]` standard-normal tensor.
pub fn gaussian(rows: usize, features: usize, seed: u64) -> Tensor {
    sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[rows, features],
        seed,
    )
}

/// The model a workload serves, and the shape it is driven at.
pub struct ModelSpec {
    /// Input features per row.
    pub in_features: usize,
    /// Rows per call in the batched phase.
    pub batch: usize,
    /// Calibration rows `quantize_model` sees.
    pub calib_rows: usize,
    build: fn(u64) -> Sequential,
}

impl ModelSpec {
    /// The unquantized model with weights drawn from `seed`.
    pub fn build(&self, seed: u64) -> Sequential {
        (self.build)(stream_seed(seed, Stream::Weights))
    }

    /// The calibration batch.
    pub fn calibration(&self, seed: u64) -> Tensor {
        gaussian(
            self.calib_rows,
            self.in_features,
            stream_seed(seed, Stream::Calibration),
        )
    }

    /// `rows` request rows.
    pub fn rows(&self, rows: usize, seed: u64) -> Tensor {
        gaussian(rows, self.in_features, stream_seed(seed, Stream::Rows))
    }
}

/// Decode shape: prompt and generated tokens per session.
pub const PROMPT_TOKENS: usize = 64;
pub const GEN_TOKENS: usize = 192;
/// Token width and block count of the decoder.
pub const DECODE_DIM: usize = 128;

fn conv_net(seed: u64) -> Sequential {
    let conv1 = Conv2d::init("conv1", 24, (16, 24, 24), 3, 1, 1, seed);
    let pool1 = MaxPool2::new("pool1", conv1.out_shape());
    let conv2 = Conv2d::init(
        "conv2",
        48,
        pool1.out_shape(),
        3,
        1,
        1,
        seed.wrapping_add(30),
    );
    let pool2 = MaxPool2::new("pool2", conv2.out_shape());
    let fc_in = pool2.out_features();
    Sequential::new()
        .push(NetLayer::Conv(conv1))
        .push(NetLayer::Relu(Relu::new("relu1")))
        .push(NetLayer::Pool(pool1))
        .push(NetLayer::Conv(conv2))
        .push(NetLayer::Relu(Relu::new("relu2")))
        .push(NetLayer::Pool(pool2))
        .push(NetLayer::Dense(Dense::init(
            "fc",
            64,
            fc_in,
            seed.wrapping_add(40),
        )))
}

/// `deep_mlp(256, 32, 512, 6)`: about 1.46 M MAC per row, nearly all of
/// it `packed_linear` GEMM.
pub const DENSE: ModelSpec = ModelSpec {
    in_features: 256,
    batch: 32,
    calib_rows: 64,
    build: |s| deep_mlp(256, 32, 512, 6, s),
};

/// conv(16→24, 3×3 on 24×24) → pool → conv(24→48) → pool → fc 64:
/// about 3.6 M MAC per row through im2row + `PackedConv`.
pub const CONV: ModelSpec = ModelSpec {
    in_features: 16 * 24 * 24,
    batch: 8,
    calib_rows: 16,
    build: conv_net,
};

/// `transformer_block(16, 128, 16)`: the f32 boundary (softmax, GELU)
/// is the bulk of the work.
pub const XFMR: ModelSpec = ModelSpec {
    in_features: 16 * 128,
    batch: 8,
    calib_rows: 32,
    build: |s| transformer_block(16, 128, 16, s),
};

/// `decoder_block(64, 128, 2)`: causal, sequence-polymorphic.
pub const DECODER: ModelSpec = ModelSpec {
    in_features: PROMPT_TOKENS * DECODE_DIM,
    batch: 4,
    calib_rows: 8,
    build: |s| decoder_block(PROMPT_TOKENS, DECODE_DIM, 2, s),
};

/// `deep_mlp(16, 10, 24, 6)`: about 3 µs of compute, so everything
/// around the model is what a request costs.
pub const TINY: ModelSpec = ModelSpec {
    in_features: 16,
    batch: 32,
    calib_rows: 128,
    build: |s| deep_mlp(16, 10, 24, 6, s),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_distinct_and_repeatable() {
        let a = stream_seed(17, Stream::Weights);
        assert_eq!(a, stream_seed(17, Stream::Weights));
        assert_ne!(a, stream_seed(17, Stream::Rows));
        assert_ne!(a, stream_seed(18, Stream::Weights));
        assert_eq!(TINY.rows(4, 17), TINY.rows(4, 17));
        assert_ne!(TINY.rows(4, 17), TINY.rows(4, 18));
        assert_ne!(TINY.rows(4, 17), TINY.calibration(17));
    }

    #[test]
    fn unit_draws_stay_in_half_open_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let u = rng.next_unit();
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn conv_net_has_the_documented_shape() {
        let mut m = CONV.build(1);
        let y = m.forward(&CONV.rows(2, 1)).unwrap();
        assert_eq!(y.dims(), &[2, 64]);
    }
}
