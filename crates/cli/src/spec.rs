//! The network-spec parser.

use std::collections::HashMap;
use std::fmt;
use znn_graph::{Graph, NetBuilder};
use znn_ops::Transfer;
use znn_tensor::Vec3;

/// Parse errors with line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

/// The most edges one `conv` layer may declare (`previous width ×
/// width`). The paper's widest nets are about 120 nodes wide, 14 400
/// edges a layer; the cap stops a hostile spec from asking the builder
/// for more graph than memory holds. An `input` layer is held to the
/// same count of nodes.
pub const MAX_LAYER_EDGES: usize = 1 << 16;

/// Parses `k`, `k,k` or `k,k,k` into a [`Vec3`]; single values are
/// isotropic, pairs are 2D (`1,a,b`). Every dimension must be >= 1.
fn parse_dims(line: usize, s: &str) -> Result<Vec3, SpecError> {
    let parts: Vec<usize> = s
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| err(line, format!("bad integer '{p}'")))
        })
        .collect::<Result<_, _>>()?;
    if parts.contains(&0) {
        return Err(err(line, format!("dimensions must be >= 1, got '{s}'")));
    }
    match parts.as_slice() {
        [k] => Ok(Vec3::cube(*k)),
        [a, b] => Ok(Vec3::flat(*a, *b)),
        [a, b, c] => Ok(Vec3::new(*a, *b, *c)),
        _ => Err(err(line, format!("expected 1-3 dims, got {}", parts.len()))),
    }
}

/// Parses a layer's `width=`: at least 1, at most [`MAX_LAYER_EDGES`].
fn parse_width(line: usize, map: &HashMap<String, String>) -> Result<usize, SpecError> {
    let width: usize = get(line, map, "width")?
        .parse()
        .map_err(|_| err(line, "bad width"))?;
    if width == 0 {
        return Err(err(line, "width must be >= 1"));
    }
    if width > MAX_LAYER_EDGES {
        return Err(err(line, format!("width {width} exceeds {MAX_LAYER_EDGES}")));
    }
    Ok(width)
}

/// The dilated extent `(k − 1)·s + 1` of a kernel or window, per axis.
fn dilated(line: usize, k: Vec3, s: Vec3) -> Result<Vec3, SpecError> {
    let mut out = Vec3::one();
    for a in 0..3 {
        out.0[a] = (k.0[a] - 1)
            .checked_mul(s.0[a])
            .and_then(|v| v.checked_add(1))
            .ok_or_else(|| err(line, format!("dilated extent of {k} at sparsity {s} overflows")))?;
    }
    Ok(out)
}

/// The input patch one output voxel needs, as the affine map
/// `out ↦ scale·out + offset` per axis that backward shape inference
/// applies (a valid filter adds `extent − 1`, a pool multiplies).
/// Keeping `scale + offset` representable keeps every intermediate of
/// [`znn_graph::shapes::required_input_shape`] representable too.
struct FieldOfView {
    scale: Vec3,
    offset: Vec3,
}

impl FieldOfView {
    fn new() -> Self {
        FieldOfView {
            scale: Vec3::one(),
            offset: Vec3::zero(),
        }
    }

    /// Appends a valid filter of dilated extent `extent`.
    fn filter(&mut self, line: usize, extent: Vec3) -> Result<(), SpecError> {
        for a in 0..3 {
            self.offset.0[a] = self.scale.0[a]
                .checked_mul(extent.0[a] - 1)
                .and_then(|v| v.checked_add(self.offset.0[a]))
                .ok_or_else(|| Self::overflow(line))?;
        }
        self.check(line)
    }

    /// Appends a pool of window `p`.
    fn pool(&mut self, line: usize, p: Vec3) -> Result<(), SpecError> {
        for a in 0..3 {
            self.scale.0[a] = self.scale.0[a]
                .checked_mul(p.0[a])
                .ok_or_else(|| Self::overflow(line))?;
        }
        self.check(line)
    }

    fn check(&self, line: usize) -> Result<(), SpecError> {
        for a in 0..3 {
            self.scale.0[a]
                .checked_add(self.offset.0[a])
                .ok_or_else(|| Self::overflow(line))?;
        }
        Ok(())
    }

    fn overflow(line: usize) -> SpecError {
        err(line, "the network's field of view overflows")
    }
}

fn parse_transfer(line: usize, s: &str) -> Result<Transfer, SpecError> {
    match s {
        "linear" => Ok(Transfer::Linear),
        "logistic" | "sigmoid" => Ok(Transfer::Logistic),
        "tanh" => Ok(Transfer::Tanh),
        "relu" => Ok(Transfer::Relu),
        other => {
            if let Some(alpha) = other.strip_prefix("leaky:") {
                let a = alpha
                    .parse::<f32>()
                    .map_err(|_| err(line, format!("bad leaky slope '{alpha}'")))?;
                Ok(Transfer::LeakyRelu(a))
            } else {
                Err(err(
                    line,
                    format!("unknown transfer '{other}' (linear|logistic|tanh|relu|leaky:a)"),
                ))
            }
        }
    }
}

fn kv_map(line: usize, tokens: &[&str]) -> Result<HashMap<String, String>, SpecError> {
    let mut map = HashMap::new();
    for t in tokens {
        let (k, v) = t
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected key=value, got '{t}'")))?;
        if map.insert(k.to_string(), v.to_string()).is_some() {
            return Err(err(line, format!("duplicate key '{k}'")));
        }
    }
    Ok(map)
}

fn get<'m>(
    line: usize,
    map: &'m HashMap<String, String>,
    key: &str,
) -> Result<&'m str, SpecError> {
    map.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| err(line, format!("missing '{key}='")))
}

/// Parses a network spec into a validated [`Graph`].
///
/// Hostile values are errors, not panics: zero widths or dimensions, a
/// layer over [`MAX_LAYER_EDGES`] edges, and extents, sparsities or a
/// field of view that overflow `usize` all return a [`SpecError`] on
/// their line.
pub fn parse_spec(text: &str) -> Result<Graph, SpecError> {
    let mut builder: Option<NetBuilder> = None;
    let mut width = 0usize;
    let mut fov = FieldOfView::new();
    let mut saw_layer = false;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let (directive, rest) = tokens.split_first().expect("nonempty line");
        let map = kv_map(line_no, rest)?;
        match *directive {
            "input" => {
                if builder.is_some() {
                    return Err(err(line_no, "'input' must be the first directive"));
                }
                width = parse_width(line_no, &map)?;
                builder = Some(NetBuilder::new("spec", width));
            }
            _ if builder.is_none() => {
                return Err(err(line_no, "spec must start with 'input width=...'"));
            }
            "conv" => {
                let next = parse_width(line_no, &map)?;
                if width * next > MAX_LAYER_EDGES {
                    return Err(err(
                        line_no,
                        format!(
                            "{width}x{next} edges exceeds the {MAX_LAYER_EDGES}-edge layer cap"
                        ),
                    ));
                }
                let kernel = parse_dims(line_no, get(line_no, &map, "kernel")?)?;
                let mut b = builder.take().expect("checked above");
                if let Some(s) = map.get("sparsity") {
                    b = b.set_sparsity(parse_dims(line_no, s)?);
                }
                fov.filter(line_no, dilated(line_no, kernel, b.sparsity())?)?;
                builder = Some(b.conv(next, kernel));
                width = next;
                saw_layer = true;
            }
            "transfer" => {
                let f = parse_transfer(line_no, get(line_no, &map, "fn")?)?;
                builder = Some(builder.take().expect("checked above").transfer(f));
                saw_layer = true;
            }
            "maxpool" => {
                let window = parse_dims(line_no, get(line_no, &map, "window")?)?;
                fov.pool(line_no, window)?;
                builder = Some(builder.take().expect("checked above").max_pool(window));
                saw_layer = true;
            }
            "maxfilter" => {
                let window = parse_dims(line_no, get(line_no, &map, "window")?)?;
                let b = builder.take().expect("checked above");
                builder = Some(if let Some(d) = map.get("dilation") {
                    let d = parse_dims(line_no, d)?;
                    fov.filter(line_no, dilated(line_no, window, d)?)?;
                    b.max_filter_sparse(window, d)
                } else {
                    let s = b.sparsity();
                    fov.filter(line_no, dilated(line_no, window, s)?)?;
                    // the lock-step bump multiplies the sparsity by the window
                    for a in 0..3 {
                        s.0[a].checked_mul(window.0[a]).ok_or_else(|| {
                            err(line_no, format!("sparsity {s} times window {window} overflows"))
                        })?;
                    }
                    b.max_filter(window)
                });
                saw_layer = true;
            }
            other => {
                return Err(err(
                    line_no,
                    format!(
                        "unknown directive '{other}' \
                         (input|conv|transfer|maxpool|maxfilter)"
                    ),
                ));
            }
        }
    }
    let builder = builder.ok_or_else(|| err(0, "empty spec"))?;
    if !saw_layer {
        return Err(err(0, "spec declares no layers"));
    }
    builder
        .build()
        .map(|(g, _)| g)
        .map_err(|e| err(0, format!("invalid network: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use znn_graph::EdgeOp;

    const GOOD: &str = "
# 3D boundary detector
input width=1
conv width=4 kernel=3,3,3
transfer fn=relu
maxfilter window=2,2,2
conv width=1 kernel=3
transfer fn=logistic
";

    #[test]
    fn parses_a_valid_spec() {
        let g = parse_spec(GOOD).unwrap();
        assert!(g.validate().is_ok());
        // conv(1->4) + transfer(4) + filter(4) + conv(4->1) + transfer(1)
        assert_eq!(g.edge_count(), 4 + 4 + 4 + 4 + 1);
        // the max-filter bumped sparsity for the second conv layer
        let sparse_convs = g
            .edges()
            .iter()
            .filter(|e| matches!(e.op, EdgeOp::Conv { sparsity, .. } if sparsity == Vec3::cube(2)))
            .count();
        assert_eq!(sparse_convs, 4);
    }

    #[test]
    fn isotropic_and_2d_dims() {
        assert_eq!(parse_dims(1, "5").unwrap(), Vec3::cube(5));
        assert_eq!(parse_dims(1, "7,9").unwrap(), Vec3::flat(7, 9));
        assert_eq!(parse_dims(1, "1,2,3").unwrap(), Vec3::new(1, 2, 3));
        assert!(parse_dims(1, "1,2,3,4").is_err());
        assert!(parse_dims(1, "x").is_err());
    }

    #[test]
    fn transfer_names() {
        assert_eq!(parse_transfer(1, "relu").unwrap(), Transfer::Relu);
        assert_eq!(parse_transfer(1, "sigmoid").unwrap(), Transfer::Logistic);
        assert_eq!(
            parse_transfer(1, "leaky:0.2").unwrap(),
            Transfer::LeakyRelu(0.2)
        );
        assert!(parse_transfer(1, "swish").is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_spec("input width=1\nconv width=2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("kernel"));
    }

    #[test]
    fn input_must_come_first() {
        let e = parse_spec("conv width=2 kernel=3\n").unwrap_err();
        assert!(e.message.contains("input"));
        let e2 = parse_spec("input width=1\ninput width=2\n").unwrap_err();
        assert!(e2.message.contains("first"));
    }

    #[test]
    fn rejects_unknown_directives_and_bad_kv() {
        assert!(parse_spec("input width=1\npool size=2\n").is_err());
        assert!(parse_spec("input width=1\nconv width 2\n").is_err());
        assert!(parse_spec("input width=0\n").is_err());
        assert!(parse_spec("").is_err());
        assert!(parse_spec("input width=1\n").is_err()); // no layers
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let g = parse_spec("  # leading comment\n\ninput width=1 # trailing\nconv width=1 kernel=2\n").unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    /// `spec` fails on line `line` with a message containing `needle`.
    fn rejects(spec: &str, line: usize, needle: &str) {
        let e = parse_spec(spec).unwrap_err();
        assert_eq!(e.line, line, "{e}");
        assert!(e.message.contains(needle), "{e}");
    }

    #[test]
    fn rejects_zero_conv_width() {
        rejects("input width=1\nconv width=0 kernel=3\n", 2, "width");
    }

    #[test]
    fn rejects_zero_sparsity() {
        rejects("input width=1\nconv width=1 kernel=3 sparsity=0\n", 2, ">= 1");
    }

    #[test]
    fn rejects_zero_kernel() {
        rejects("input width=1\nconv width=1 kernel=3,0,3\n", 2, ">= 1");
    }

    #[test]
    fn rejects_zero_maxfilter_window() {
        rejects("input width=1\nconv width=1 kernel=3\nmaxfilter window=0\n", 3, ">= 1");
    }

    #[test]
    fn rejects_zero_maxpool_window() {
        rejects("input width=1\nconv width=1 kernel=3\nmaxpool window=2,0\n", 3, ">= 1");
    }

    #[test]
    fn rejects_zero_dilation() {
        rejects(
            "input width=1\nconv width=1 kernel=3\nmaxfilter window=2 dilation=0\n",
            3,
            ">= 1",
        );
    }

    #[test]
    fn rejects_a_width_past_the_cap() {
        rejects("input width=1\nconv width=1000000000000 kernel=3\n", 2, "exceeds");
        rejects("input width=1000000000000\n", 1, "exceeds");
    }

    #[test]
    fn rejects_a_layer_past_the_edge_cap() {
        rejects(
            "input width=1\nconv width=300 kernel=1\nconv width=300 kernel=1\n",
            3,
            "edge layer cap",
        );
    }

    #[test]
    fn rejects_an_overflowing_dilated_kernel() {
        rejects(
            &format!("input width=1\nconv width=1 kernel={} sparsity=2\n", u64::MAX),
            2,
            "overflows",
        );
        rejects(
            &format!("input width=1\nconv width=1 kernel=3 sparsity={}\n", u64::MAX),
            2,
            "overflows",
        );
    }

    #[test]
    fn rejects_an_overflowing_field_of_view() {
        let k = (1u64 << 63) + 1;
        rejects(
            &format!("input width=1\nconv width=1 kernel={k}\nconv width=1 kernel={k}\n"),
            3,
            "field of view",
        );
    }

    #[test]
    fn rejects_an_overflowing_lock_step_sparsity() {
        rejects(
            &format!(
                "input width=1\nconv width=1 kernel=1 sparsity={}\nmaxfilter window=2\n",
                1u64 << 63
            ),
            3,
            "sparsity",
        );
    }

    #[test]
    fn the_largest_field_of_view_still_infers_shapes() {
        let g = parse_spec(&format!("input width=1\nconv width=1 kernel={}\n", u64::MAX)).unwrap();
        let fov = znn_graph::shapes::required_input_shape(&g, Vec3::one()).unwrap();
        assert_eq!(fov, Vec3::cube(u64::MAX as usize));
    }

    /// `GOOD` with one mutation: `op` 0 truncates at byte `at`, 1
    /// overwrites byte `at` with printable `ascii`, 2 replaces one
    /// integer with `0`, a small value or `any`.
    fn mutate_good(op: u8, at: usize, ascii: u8, any: u64) -> String {
        let mut text = GOOD.to_string();
        let at = at % (text.len() + 1);
        match op {
            0 => text.truncate(at), // GOOD is ASCII: every byte is a char boundary
            1 if at < text.len() => {
                text.replace_range(at..at + 1, &char::from(ascii).to_string());
            }
            _ => {
                let mut runs = Vec::new();
                let bytes = text.as_bytes();
                let mut i = 0;
                while i < bytes.len() {
                    if bytes[i].is_ascii_digit() {
                        let start = i;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                        runs.push(start..i);
                    } else {
                        i += 1;
                    }
                }
                let run = runs[at % runs.len()].clone();
                let value = match any % 3 {
                    0 => 0,
                    1 => any % 9,
                    _ => any,
                };
                text.replace_range(run, &value.to_string());
            }
        }
        text
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn mutated_specs_never_panic(
            op in 0u8..3,
            at in proptest::prelude::any::<usize>(),
            ascii in 0x20u8..0x7f,
            any in proptest::prelude::any::<u64>(),
        ) {
            let text = mutate_good(op, at, ascii, any);
            let parsed = std::panic::catch_unwind(|| parse_spec(&text));
            proptest::prop_assert!(parsed.is_ok(), "parse_spec panicked on {text:?}");
            if let Ok(Ok(g)) = parsed {
                proptest::prop_assert!(g.validate().is_ok(), "invalid graph from {text:?}");
                let fov = std::panic::catch_unwind(|| {
                    znn_graph::shapes::required_input_shape(&g, Vec3::one())
                });
                proptest::prop_assert!(fov.is_ok(), "shape inference panicked on {text:?}");
            }
        }
    }

    #[test]
    fn explicit_sparsity_and_filter_dilation() {
        let g = parse_spec(
            "input width=1\nconv width=1 kernel=3 sparsity=2\nmaxfilter window=2 dilation=1\n",
        )
        .unwrap();
        let has_sparse = g
            .edges()
            .iter()
            .any(|e| matches!(e.op, EdgeOp::Conv { sparsity, .. } if sparsity == Vec3::cube(2)));
        assert!(has_sparse);
    }
}
