//! Plain-text model persistence.
//!
//! Trained predictor networks are expensive to produce (minutes of SGD at
//! paper scale), so the harness and downstream users need to save and
//! reload them. The format is a deliberately simple line-oriented text
//! format — no external dependencies, stable across platforms, and
//! diff-able — storing `f32` values as exact hexadecimal bit patterns so a
//! round trip is bit-lossless.
//!
//! ```text
//! sparsenn-model v1
//! dims 784 256 10
//! rank 8
//! layer 0 <rows> <cols>
//! <hex row> …
//! predictor 0 u <rows> <cols>
//! …
//! ```

use crate::{DenseLayer, Mlp, PredictedNetwork, Predictor};
use sparsenn_linalg::Matrix;
use std::fmt::Write as _;

/// Error produced when parsing a serialized model fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    line: usize,
    message: String,
}

impl std::fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid model at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseModelError {}

fn err(line: usize, message: impl Into<String>) -> ParseModelError {
    ParseModelError {
        line,
        message: message.into(),
    }
}

/// Serializes a network (weights + predictors) to the text format.
///
/// # Example
///
/// ```
/// use sparsenn_model::{serialize, Mlp, PredictedNetwork};
/// use sparsenn_linalg::init::seeded_rng;
/// let mut rng = seeded_rng(1);
/// let net = PredictedNetwork::with_random_predictors(
///     Mlp::random(&[4, 6, 2], &mut rng), 2, &mut rng);
/// let text = serialize::to_string(&net);
/// let back = serialize::from_str(&text).unwrap();
/// assert_eq!(net, back);
/// ```
pub fn to_string(net: &PredictedNetwork) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "sparsenn-model v1");
    let dims = net.mlp().dims();
    let _ = writeln!(
        out,
        "dims {}",
        dims.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    );
    let rank = net.predictors().first().map_or(0, Predictor::rank);
    let _ = writeln!(out, "rank {rank}");
    for (l, layer) in net.mlp().layers().iter().enumerate() {
        write_matrix(&mut out, &format!("layer {l}"), layer.w());
    }
    for (l, p) in net.predictors().iter().enumerate() {
        write_matrix(&mut out, &format!("predictor {l} u"), p.u());
        write_matrix(&mut out, &format!("predictor {l} v"), p.v());
    }
    out
}

fn write_matrix(out: &mut String, tag: &str, m: &Matrix) {
    let _ = writeln!(out, "{tag} {} {}", m.rows(), m.cols());
    for i in 0..m.rows() {
        let row: Vec<String> = m
            .row(i)
            .iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect();
        let _ = writeln!(out, "{}", row.join(" "));
    }
}

/// Parses a network from the text format.
///
/// # Errors
///
/// Returns [`ParseModelError`] with the offending line on malformed input.
pub fn from_str(text: &str) -> Result<PredictedNetwork, ParseModelError> {
    let mut lines = text.lines().enumerate().peekable();
    let (n, header) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    if header.trim() != "sparsenn-model v1" {
        return Err(err(n + 1, "bad header (expected `sparsenn-model v1`)"));
    }
    let (n, dims_line) = lines.next().ok_or_else(|| err(2, "missing dims"))?;
    let dims: Vec<usize> = dims_line
        .strip_prefix("dims ")
        .ok_or_else(|| err(n + 1, "expected `dims …`"))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| err(n + 1, format!("bad dim `{t}`"))))
        .collect::<Result<_, _>>()?;
    if dims.len() < 2 {
        return Err(err(n + 1, "need at least two dims"));
    }
    if dims.contains(&0) {
        return Err(err(n + 1, "dims must be positive"));
    }
    let (n, rank_line) = lines.next().ok_or_else(|| err(3, "missing rank"))?;
    let _rank: usize = rank_line
        .strip_prefix("rank ")
        .ok_or_else(|| err(n + 1, "expected `rank …`"))?
        .trim()
        .parse()
        .map_err(|_| err(n + 1, "bad rank"))?;

    // Each matrix header must name the shape `dims` implies before any
    // row is read, so a crafted header can neither size an allocation nor
    // build layers that do not link up. `cols: None` accepts the header's
    // column count: a predictor's `u` sets its own rank, because the
    // `rank` line is only the first predictor's (a truncated-SVD
    // predictor on a narrow layer has a lower one).
    let mut read_matrix = |tag: String, rows: usize, cols: Option<usize>| {
        let (n, head) = lines
            .next()
            .ok_or_else(|| err(usize::MAX, format!("missing `{tag}` header")))?;
        let rest = head
            .strip_prefix(&tag)
            .ok_or_else(|| err(n + 1, format!("expected `{tag}`, found `{head}`")))?;
        let shape: Vec<usize> = rest
            .split_whitespace()
            .map(|t| {
                t.parse()
                    .map_err(|_| err(n + 1, format!("bad shape token `{t}`")))
            })
            .collect::<Result<_, _>>()?;
        let cols = match (shape.as_slice(), cols) {
            (&[r, c], None) if r == rows => c,
            (&[r, c], Some(want)) if r == rows && c == want => c,
            _ => return Err(err(n + 1, format!("`{head}` does not fit the network"))),
        };
        let mut data = Vec::new();
        for _ in 0..rows {
            let (n, row) = lines
                .next()
                .ok_or_else(|| err(usize::MAX, "missing matrix row"))?;
            let start = data.len();
            for tok in row.split_whitespace() {
                let bits = u32::from_str_radix(tok, 16)
                    .map_err(|_| err(n + 1, format!("bad hex value `{tok}`")))?;
                data.push(f32::from_bits(bits));
            }
            if data.len() - start != cols {
                return Err(err(n + 1, "row length mismatch"));
            }
        }
        Ok(Matrix::from_vec(rows, cols, data))
    };

    let mut layers = Vec::with_capacity(dims.len() - 1);
    for (l, d) in dims.windows(2).enumerate() {
        let m = read_matrix(format!("layer {l} "), d[1], Some(d[0]))?;
        layers.push(DenseLayer::new(m));
    }
    let hidden = dims.len() - 2;
    let mut predictors = Vec::with_capacity(hidden);
    for (l, d) in dims.windows(2).take(hidden).enumerate() {
        let u = read_matrix(format!("predictor {l} u "), d[1], None)?;
        let v = read_matrix(format!("predictor {l} v "), u.cols(), Some(d[0]))?;
        predictors.push(Predictor::new(u, v));
    }
    Ok(PredictedNetwork::new(Mlp::new(layers), predictors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_linalg::init::seeded_rng;

    fn sample() -> PredictedNetwork {
        let mut rng = seeded_rng(9);
        PredictedNetwork::with_random_predictors(Mlp::random(&[5, 7, 6, 3], &mut rng), 2, &mut rng)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let net = sample();
        let text = to_string(&net);
        let back = from_str(&text).expect("parse");
        assert_eq!(net, back);
    }

    #[test]
    fn format_is_stable_for_equal_networks() {
        assert_eq!(to_string(&sample()), to_string(&sample()));
    }

    #[test]
    fn bad_header_is_rejected() {
        let e = from_str("not a model\n").unwrap_err();
        assert!(e.to_string().contains("bad header"), "{e}");
    }

    #[test]
    fn truncated_input_is_rejected() {
        let text = to_string(&sample());
        let cut = &text[..text.len() / 2];
        assert!(from_str(cut).is_err());
    }

    #[test]
    fn corrupt_hex_is_rejected() {
        let text = to_string(&sample())
            .replace(' ', " zz ")
            .replacen(" zz ", " ", 3);
        assert!(from_str(&text).is_err());
    }

    /// A checkpoint from its `dims`/`rank` lines and matrix blocks, each
    /// block a header plus `rows` lines of `cols` ones.
    fn checkpoint(dims: &str, rank: usize, blocks: &[(&str, usize, usize)]) -> String {
        let mut text = format!("sparsenn-model v1\ndims {dims}\nrank {rank}\n");
        for &(tag, rows, cols) in blocks {
            let _ = writeln!(text, "{tag} {rows} {cols}");
            for _ in 0..rows {
                let _ = writeln!(text, "{}", vec!["3f800000"; cols].join(" "));
            }
        }
        text
    }

    #[test]
    fn zero_width_header_is_an_error() {
        // `layer 0 1 0` used to divide a row length by zero.
        assert!(from_str(&checkpoint("2 1", 0, &[("layer 0", 1, 0)])).is_err());
        assert!(from_str(&checkpoint("0 1", 0, &[("layer 0", 1, 0)])).is_err());
    }

    #[test]
    fn huge_header_is_an_error() {
        // A 4e9 x 4e9 header used to reserve its product up front.
        let huge = "sparsenn-model v1\ndims 2 1\nrank 0\nlayer 0 4000000000 4000000000\n";
        assert!(from_str(huge).is_err());
        let text = huge.replace("dims 2 1", "dims 4000000000 4000000000");
        assert!(from_str(&format!("{text}3f800000\n")).is_err());
    }

    #[test]
    fn layer_shape_must_match_dims() {
        // A `dims 3 2` file used to load as a 1x1 network.
        assert!(from_str(&checkpoint("3 2", 0, &[("layer 0", 1, 1)])).is_err());
    }

    #[test]
    fn layers_must_link_up() {
        // Layer 1 takes 4 inputs where layer 0 gives 3.
        let blocks = [
            ("layer 0", 3, 2),
            ("layer 1", 2, 4),
            ("predictor 0 u", 3, 1),
            ("predictor 0 v", 1, 2),
        ];
        assert!(from_str(&checkpoint("2 3 2", 1, &blocks)).is_err());
    }

    #[test]
    fn predictor_factors_must_agree_on_rank() {
        let blocks = [
            ("layer 0", 3, 2),
            ("layer 1", 2, 3),
            ("predictor 0 u", 3, 1),
            ("predictor 0 v", 2, 2),
        ];
        assert!(from_str(&checkpoint("2 3 2", 1, &blocks)).is_err());
        // The well-formed neighbour loads.
        let mut good = blocks;
        good[3] = ("predictor 0 v", 1, 2);
        assert!(from_str(&checkpoint("2 3 2", 1, &good)).is_ok());
    }

    /// The `rank` line records the first predictor's rank only; truncated
    /// SVD lowers it on narrow layers, and such networks must still load.
    #[test]
    fn mixed_rank_predictors_round_trip() {
        let mut rng = seeded_rng(4);
        let mlp = Mlp::random(&[5, 4, 3, 2], &mut rng);
        let predictors = vec![
            Predictor::random(4, 5, 2, &mut rng),
            Predictor::random(3, 4, 1, &mut rng),
        ];
        let net = PredictedNetwork::new(mlp, predictors);
        assert_eq!(from_str(&to_string(&net)).unwrap(), net);
    }

    #[test]
    fn special_float_values_survive() {
        // Negative zero and subnormals must round trip bit-exactly.
        let w = Matrix::from_vec(1, 3, vec![-0.0f32, f32::MIN_POSITIVE / 2.0, 1.5e-42]);
        let out = Matrix::from_vec(2, 1, vec![1.0, -1.0]);
        let mlp = Mlp::new(vec![DenseLayer::new(w), DenseLayer::new(out)]);
        let u = Matrix::from_vec(1, 1, vec![0.5]);
        let v = Matrix::from_vec(1, 3, vec![0.1, 0.2, 0.3]);
        let net = PredictedNetwork::new(mlp, vec![Predictor::new(u, v)]);
        let back = from_str(&to_string(&net)).unwrap();
        assert_eq!(
            net.mlp().layers()[0].w().as_slice()[0].to_bits(),
            (-0.0f32).to_bits()
        );
        assert_eq!(net, back);
    }
}
