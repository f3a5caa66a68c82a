//! The certificate artifact: obligation records, deterministic ordering,
//! and the JSON round trip.

use qac_telemetry::json::{self, Json};

/// Format tag stamped on every certificate.
pub const CERT_FORMAT: &str = "qac-cert-v1";

/// Largest cut-function support the producer enumerates exhaustively.
/// Wider cones are recorded as skipped obligations rather than proved.
pub const MAX_CUT_SUPPORT: usize = 16;

/// Largest unit Ising model (pins + ancillas) a macro obligation may
/// carry; every Table 5 cell fits.
pub const MAX_MACRO_SPINS: usize = 8;

/// One front-end obligation: an output bit's cut function enumerated on
/// the pre-optimization netlist and on the post-EDIF netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct CutObligation {
    /// Output bit, named `port[bit]`.
    pub output: String,
    /// Input-bit support, sorted by name; pattern bit `i` is the value
    /// of `support[i]`.
    pub support: Vec<String>,
    /// Truth table on the source (pre-optimization) netlist: bit `p` of
    /// the packed words is the output under input pattern `p`. Empty when
    /// the obligation was skipped.
    pub source_truth: Vec<u64>,
    /// Truth table on the optimized (post-EDIF) netlist.
    pub optimized_truth: Vec<u64>,
    /// Integrity checksum over output, support, and source truth words.
    pub truth_hash: u64,
    /// Structural fingerprint of the source-side cone (reuse key for
    /// incremental re-certification).
    pub source_fingerprint: u64,
    /// Structural fingerprint of the optimized-side cone.
    pub optimized_fingerprint: u64,
    /// `Some(reason)` when the cut was not enumerated (support too wide).
    pub skipped: Option<String>,
}

/// One macro-library obligation: a QMASM macro's unit Ising model and
/// its claimed ground-space/gap facts, plus every instantiation site.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroObligation {
    /// Macro (cell) name, e.g. `AND`.
    pub kind: String,
    /// Output pin name (`Y`, or `Q` for flip-flops).
    pub output: String,
    /// Input pin names in truth-table order.
    pub inputs: Vec<String>,
    /// Ancilla variable names, sorted.
    pub ancillas: Vec<String>,
    /// Linear weights by symbol name, sorted by name.
    pub h: Vec<(String, f64)>,
    /// Couplings by symbol-name pair (lexicographically ordered within
    /// the pair and across the list).
    pub j: Vec<(String, String, f64)>,
    /// Constant energy offset of the unit model.
    pub offset: f64,
    /// Claimed ground rows in truth-table convention (output at bit 0,
    /// input `i` at bit `i + 1`), sorted ascending.
    pub ground_rows: Vec<u32>,
    /// Claimed ground-state energy.
    pub ground_energy: f64,
    /// Claimed minimum energy gap from any non-satisfying row to the
    /// ground energy; must be strictly positive.
    pub gap: f64,
    /// Instance prefixes that use the macro, sorted.
    pub sites: Vec<String>,
}

/// A sparse Ising model recorded term-by-term.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTerms {
    /// Variable-space size.
    pub num_vars: usize,
    /// Nonzero linear terms, sorted by variable.
    pub h: Vec<(usize, f64)>,
    /// Nonzero couplings with `i < j`, sorted.
    pub j: Vec<(usize, usize, f64)>,
    /// Constant offset.
    pub offset: f64,
}

/// One logical variable's chain on the hardware graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRecord {
    /// The logical variable.
    pub var: usize,
    /// Physical qubits of the chain, sorted.
    pub qubits: Vec<usize>,
    /// Intra-chain couplers `(a, b)` with `a < b`, sorted; each carries
    /// `J = -chain_strength` in the physical model.
    pub edges: Vec<(usize, usize)>,
}

/// The back-end obligation: the embedded hardware model chain-contracts
/// back to the logical model.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendObligation {
    /// Ferromagnetic chain strength programmed on every intra-chain
    /// coupler.
    pub chain_strength: f64,
    /// The logical (pre-embedding) model.
    pub logical: ModelTerms,
    /// One chain per logical variable, sorted by variable.
    pub chains: Vec<ChainRecord>,
    /// The embedded (physical) model.
    pub physical: ModelTerms,
}

/// The complete certificate a certified compile emits.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileCertificate {
    /// Top module name of the certified design.
    pub module: String,
    /// Front-end obligations, sorted by output name.
    pub frontend: Vec<CutObligation>,
    /// Macro-library obligations, sorted by kind.
    pub macros: Vec<MacroObligation>,
    /// Back-end obligation (present once the model has been embedded).
    pub backend: Option<BackendObligation>,
}

impl CompileCertificate {
    /// An empty certificate for `module`.
    pub fn new(module: &str) -> CompileCertificate {
        CompileCertificate {
            module: module.to_string(),
            frontend: Vec::new(),
            macros: Vec::new(),
            backend: None,
        }
    }

    /// Sorts every obligation list into the canonical (stage, site,
    /// variable) order so the rendered JSON is byte-identical no matter
    /// what order the producer discovered the obligations in.
    pub fn finalize(&mut self) {
        self.frontend.sort_by(|a, b| a.output.cmp(&b.output));
        self.macros.sort_by(|a, b| a.kind.cmp(&b.kind));
        for ob in &mut self.macros {
            ob.sites.sort();
            ob.h.sort_by(|a, b| a.0.cmp(&b.0));
            ob.j.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            ob.ground_rows.sort_unstable();
        }
        if let Some(backend) = &mut self.backend {
            backend.logical.sort();
            backend.physical.sort();
            backend.chains.sort_by_key(|c| c.var);
            for chain in &mut backend.chains {
                chain.qubits.sort_unstable();
                chain.edges.sort_unstable();
            }
        }
    }

    /// Total obligations carried (front-end + macro + backend sections).
    pub fn num_obligations(&self) -> usize {
        self.frontend.len() + self.macros.len() + usize::from(self.backend.is_some())
    }

    /// Renders the certificate as deterministic, pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        pretty(&self.to_json(), 0, &mut out);
        out.push('\n');
        out
    }

    /// The certificate as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("format".into(), Json::Str(CERT_FORMAT.into())),
            ("module".into(), Json::Str(self.module.clone())),
            (
                "frontend".into(),
                Json::Arr(self.frontend.iter().map(cut_to_json).collect()),
            ),
            (
                "macros".into(),
                Json::Arr(self.macros.iter().map(macro_to_json).collect()),
            ),
            (
                "backend".into(),
                match &self.backend {
                    Some(b) => backend_to_json(b),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Parses a rendered certificate.
    ///
    /// # Errors
    /// A description of the first malformed field.
    pub fn parse(text: &str) -> Result<CompileCertificate, String> {
        let value = json::parse(text)?;
        CompileCertificate::from_json(&value)
    }

    /// Reconstructs a certificate from a JSON value.
    ///
    /// # Errors
    /// A description of the first malformed field.
    pub fn from_json(value: &Json) -> Result<CompileCertificate, String> {
        let format = str_field(value, "format")?;
        if format != CERT_FORMAT {
            return Err(format!("unsupported certificate format `{format}`"));
        }
        let backend = match value.get("backend") {
            None | Some(Json::Null) => None,
            Some(b) => Some(backend_from_json(b)?),
        };
        Ok(CompileCertificate {
            module: str_field(value, "module")?,
            frontend: arr_field(value, "frontend")?
                .iter()
                .map(cut_from_json)
                .collect::<Result<_, _>>()?,
            macros: arr_field(value, "macros")?
                .iter()
                .map(macro_from_json)
                .collect::<Result<_, _>>()?,
            backend,
        })
    }
}

impl ModelTerms {
    /// Canonicalizes the term lists: `h` sorted by variable, `j` pairs
    /// swapped to `i < j` then sorted. Producers call this so recorded
    /// models are byte-deterministic.
    pub fn sort(&mut self) {
        self.h.sort_by_key(|&(i, _)| i);
        for term in &mut self.j {
            if term.0 > term.1 {
                std::mem::swap(&mut term.0, &mut term.1);
            }
        }
        self.j.sort_by_key(|&(i, j, _)| (i, j));
    }
}

/// Integrity checksum binding a cut obligation's truth words to its
/// output and support names (64-bit FNV-1a).
pub fn truth_hash(output: &str, support: &[String], words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(output.as_bytes());
    eat(&[0xff]);
    for name in support {
        eat(name.as_bytes());
        eat(&[0xff]);
    }
    for &w in words {
        eat(&w.to_le_bytes());
    }
    h
}

// ---------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#018x}"))
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn usize_num(v: usize) -> Json {
    Json::Num(v as f64)
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn cut_to_json(ob: &CutObligation) -> Json {
    let words = |ws: &[u64]| Json::Arr(ws.iter().map(|&w| hex(w)).collect());
    let mut fields = vec![
        ("output".to_string(), Json::Str(ob.output.clone())),
        ("support".to_string(), str_arr(&ob.support)),
        ("source_truth".to_string(), words(&ob.source_truth)),
        ("optimized_truth".to_string(), words(&ob.optimized_truth)),
        ("truth_hash".to_string(), hex(ob.truth_hash)),
        ("source_fingerprint".to_string(), hex(ob.source_fingerprint)),
        (
            "optimized_fingerprint".to_string(),
            hex(ob.optimized_fingerprint),
        ),
    ];
    if let Some(reason) = &ob.skipped {
        fields.push(("skipped".to_string(), Json::Str(reason.clone())));
    }
    Json::Obj(fields)
}

fn macro_to_json(ob: &MacroObligation) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::Str(ob.kind.clone())),
        ("output".into(), Json::Str(ob.output.clone())),
        ("inputs".into(), str_arr(&ob.inputs)),
        ("ancillas".into(), str_arr(&ob.ancillas)),
        (
            "h".into(),
            Json::Arr(
                ob.h.iter()
                    .map(|(s, v)| Json::Arr(vec![Json::Str(s.clone()), num(*v)]))
                    .collect(),
            ),
        ),
        (
            "j".into(),
            Json::Arr(
                ob.j.iter()
                    .map(|(a, b, v)| {
                        Json::Arr(vec![Json::Str(a.clone()), Json::Str(b.clone()), num(*v)])
                    })
                    .collect(),
            ),
        ),
        ("offset".into(), num(ob.offset)),
        (
            "ground_rows".into(),
            Json::Arr(
                ob.ground_rows
                    .iter()
                    .map(|&r| Json::Num(f64::from(r)))
                    .collect(),
            ),
        ),
        ("ground_energy".into(), num(ob.ground_energy)),
        ("gap".into(), num(ob.gap)),
        ("sites".into(), str_arr(&ob.sites)),
    ])
}

fn terms_to_json(m: &ModelTerms) -> Json {
    Json::Obj(vec![
        ("num_vars".into(), usize_num(m.num_vars)),
        (
            "h".into(),
            Json::Arr(
                m.h.iter()
                    .map(|&(i, v)| Json::Arr(vec![usize_num(i), num(v)]))
                    .collect(),
            ),
        ),
        (
            "j".into(),
            Json::Arr(
                m.j.iter()
                    .map(|&(i, j, v)| Json::Arr(vec![usize_num(i), usize_num(j), num(v)]))
                    .collect(),
            ),
        ),
        ("offset".into(), num(m.offset)),
    ])
}

fn backend_to_json(b: &BackendObligation) -> Json {
    Json::Obj(vec![
        ("chain_strength".into(), num(b.chain_strength)),
        ("logical".into(), terms_to_json(&b.logical)),
        (
            "chains".into(),
            Json::Arr(
                b.chains
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("var".into(), usize_num(c.var)),
                            (
                                "qubits".into(),
                                Json::Arr(c.qubits.iter().map(|&q| usize_num(q)).collect()),
                            ),
                            (
                                "edges".into(),
                                Json::Arr(
                                    c.edges
                                        .iter()
                                        .map(|&(a, b)| Json::Arr(vec![usize_num(a), usize_num(b)]))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("physical".into(), terms_to_json(&b.physical)),
    ])
}

// ---------------------------------------------------------------------
// JSON decoding
// ---------------------------------------------------------------------

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn num_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field `{key}`"))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    let n = num_field(v, key)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("field `{key}` is not a non-negative integer"));
    }
    Ok(n as usize)
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array field `{key}`"))
}

fn hex_value(v: &Json) -> Result<u64, String> {
    let s = v.as_str().ok_or("expected a hex string")?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("hex string `{s}` lacks 0x prefix"))?;
    u64::from_str_radix(digits, 16).map_err(|_| format!("invalid hex string `{s}`"))
}

fn hex_field(v: &Json, key: &str) -> Result<u64, String> {
    hex_value(
        v.get(key)
            .ok_or_else(|| format!("missing hex field `{key}`"))?,
    )
}

fn str_list(v: &Json, key: &str) -> Result<Vec<String>, String> {
    arr_field(v, key)?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field `{key}` contains a non-string"))
        })
        .collect()
}

fn plain_usize(v: &Json) -> Result<usize, String> {
    let n = v.as_f64().ok_or("expected a number")?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("`{n}` is not a non-negative integer"));
    }
    Ok(n as usize)
}

fn cut_from_json(v: &Json) -> Result<CutObligation, String> {
    let words = |key: &str| -> Result<Vec<u64>, String> {
        arr_field(v, key)?.iter().map(hex_value).collect()
    };
    Ok(CutObligation {
        output: str_field(v, "output")?,
        support: str_list(v, "support")?,
        source_truth: words("source_truth")?,
        optimized_truth: words("optimized_truth")?,
        truth_hash: hex_field(v, "truth_hash")?,
        source_fingerprint: hex_field(v, "source_fingerprint")?,
        optimized_fingerprint: hex_field(v, "optimized_fingerprint")?,
        skipped: match v.get("skipped") {
            None | Some(Json::Null) => None,
            Some(s) => Some(
                s.as_str()
                    .map(str::to_string)
                    .ok_or("field `skipped` is not a string")?,
            ),
        },
    })
}

fn macro_from_json(v: &Json) -> Result<MacroObligation, String> {
    let h = arr_field(v, "h")?
        .iter()
        .map(|pair| {
            let items = pair.as_array().ok_or("`h` entry is not an array")?;
            match items {
                [name, value] => Ok((
                    name.as_str()
                        .ok_or("`h` symbol is not a string")?
                        .to_string(),
                    value.as_f64().ok_or("`h` value is not a number")?,
                )),
                _ => Err("`h` entry is not a [symbol, value] pair".to_string()),
            }
        })
        .collect::<Result<_, String>>()?;
    let j = arr_field(v, "j")?
        .iter()
        .map(|triple| {
            let items = triple.as_array().ok_or("`j` entry is not an array")?;
            match items {
                [a, b, value] => Ok((
                    a.as_str().ok_or("`j` symbol is not a string")?.to_string(),
                    b.as_str().ok_or("`j` symbol is not a string")?.to_string(),
                    value.as_f64().ok_or("`j` value is not a number")?,
                )),
                _ => Err("`j` entry is not a [a, b, value] triple".to_string()),
            }
        })
        .collect::<Result<_, String>>()?;
    let ground_rows = arr_field(v, "ground_rows")?
        .iter()
        .map(|r| plain_usize(r).map(|n| n as u32))
        .collect::<Result<_, String>>()?;
    Ok(MacroObligation {
        kind: str_field(v, "kind")?,
        output: str_field(v, "output")?,
        inputs: str_list(v, "inputs")?,
        ancillas: str_list(v, "ancillas")?,
        h,
        j,
        offset: num_field(v, "offset")?,
        ground_rows,
        ground_energy: num_field(v, "ground_energy")?,
        gap: num_field(v, "gap")?,
        sites: str_list(v, "sites")?,
    })
}

fn terms_from_json(v: &Json) -> Result<ModelTerms, String> {
    let h = arr_field(v, "h")?
        .iter()
        .map(|pair| {
            let items = pair.as_array().ok_or("model `h` entry is not an array")?;
            match items {
                [i, value] => Ok((
                    plain_usize(i)?,
                    value.as_f64().ok_or("model `h` value is not a number")?,
                )),
                _ => Err("model `h` entry is not an [i, value] pair".to_string()),
            }
        })
        .collect::<Result<_, String>>()?;
    let j = arr_field(v, "j")?
        .iter()
        .map(|triple| {
            let items = triple.as_array().ok_or("model `j` entry is not an array")?;
            match items {
                [i, jj, value] => Ok((
                    plain_usize(i)?,
                    plain_usize(jj)?,
                    value.as_f64().ok_or("model `j` value is not a number")?,
                )),
                _ => Err("model `j` entry is not an [i, j, value] triple".to_string()),
            }
        })
        .collect::<Result<_, String>>()?;
    Ok(ModelTerms {
        num_vars: usize_field(v, "num_vars")?,
        h,
        j,
        offset: num_field(v, "offset")?,
    })
}

fn backend_from_json(v: &Json) -> Result<BackendObligation, String> {
    let chains = arr_field(v, "chains")?
        .iter()
        .map(|c| {
            let qubits = arr_field(c, "qubits")?
                .iter()
                .map(plain_usize)
                .collect::<Result<_, String>>()?;
            let edges = arr_field(c, "edges")?
                .iter()
                .map(|e| {
                    let items = e.as_array().ok_or("chain edge is not an array")?;
                    match items {
                        [a, b] => Ok((plain_usize(a)?, plain_usize(b)?)),
                        _ => Err("chain edge is not an [a, b] pair".to_string()),
                    }
                })
                .collect::<Result<_, String>>()?;
            Ok(ChainRecord {
                var: usize_field(c, "var")?,
                qubits,
                edges,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(BackendObligation {
        chain_strength: num_field(v, "chain_strength")?,
        logical: terms_from_json(v.get("logical").ok_or("missing `logical` model")?)?,
        chains,
        physical: terms_from_json(v.get("physical").ok_or("missing `physical` model")?)?,
    })
}

// ---------------------------------------------------------------------
// Pretty printer
// ---------------------------------------------------------------------

/// Two-space-indented rendering. Leaf arrays (no nested containers)
/// stay on one line so truth words and term lists read compactly.
fn pretty(value: &Json, indent: usize, out: &mut String) {
    match value {
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, v)) in fields.iter().enumerate() {
                pad(indent + 1, out);
                out.push_str(&Json::Str(key.clone()).to_string());
                out.push_str(": ");
                pretty(v, indent + 1, out);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(indent, out);
            out.push('}');
        }
        Json::Arr(items) if items.iter().any(is_container) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(indent + 1, out);
                pretty(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(indent, out);
            out.push(']');
        }
        other => out.push_str(&other.to_string()),
    }
}

fn is_container(v: &Json) -> bool {
    matches!(v, Json::Obj(_)) || matches!(v, Json::Arr(items) if items.iter().any(is_container))
}

fn pad(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompileCertificate {
        let mut cert = CompileCertificate::new("demo");
        let words = vec![0x6996u64];
        cert.frontend.push(CutObligation {
            output: "z[0]".into(),
            support: vec!["a[0]".into(), "b[0]".into()],
            source_truth: words.clone(),
            optimized_truth: words.clone(),
            truth_hash: truth_hash("z[0]", &["a[0]".into(), "b[0]".into()], &words),
            source_fingerprint: 0x1234,
            optimized_fingerprint: 0x5678,
            skipped: None,
        });
        cert.macros.push(MacroObligation {
            kind: "NOT".into(),
            output: "Y".into(),
            inputs: vec!["A".into()],
            ancillas: vec![],
            h: vec![],
            j: vec![("A".into(), "Y".into(), 1.0)],
            offset: 0.0,
            ground_rows: vec![0b01, 0b10],
            ground_energy: -1.0,
            gap: 2.0,
            sites: vec!["$g0".into()],
        });
        cert.backend = Some(BackendObligation {
            chain_strength: 2.0,
            logical: ModelTerms {
                num_vars: 2,
                h: vec![(0, 0.5)],
                j: vec![(0, 1, -1.0)],
                offset: 0.25,
            },
            chains: vec![
                ChainRecord {
                    var: 0,
                    qubits: vec![0, 1],
                    edges: vec![(0, 1)],
                },
                ChainRecord {
                    var: 1,
                    qubits: vec![2],
                    edges: vec![],
                },
            ],
            physical: ModelTerms {
                num_vars: 3,
                h: vec![(0, 0.25), (1, 0.25)],
                j: vec![(0, 1, -2.0), (1, 2, -1.0)],
                offset: 0.25,
            },
        });
        cert.finalize();
        cert
    }

    #[test]
    fn json_round_trips_exactly() {
        let cert = sample();
        let text = cert.render();
        let back = CompileCertificate::parse(&text).unwrap();
        assert_eq!(cert, back);
        // And the re-rendered text is byte-identical.
        assert_eq!(text, back.render());
    }

    #[test]
    fn finalize_sorts_every_list() {
        let mut cert = sample();
        cert.frontend.reverse();
        cert.macros.push(MacroObligation {
            kind: "AND".into(),
            ..cert.macros[0].clone()
        });
        cert.macros.swap(0, 1);
        let mut again = cert.clone();
        again.finalize();
        cert.finalize();
        assert_eq!(cert, again);
        assert_eq!(cert.macros[0].kind, "AND");
    }

    #[test]
    fn malformed_json_is_rejected_with_a_reason() {
        assert!(CompileCertificate::parse("{}").is_err());
        let err = CompileCertificate::parse(r#"{"format": "nope"}"#).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
        let err = CompileCertificate::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn truth_hash_separates_fields() {
        let w = [0xffu64];
        let a = truth_hash("z", &["a".into()], &w);
        let b = truth_hash("za", &[], &w);
        assert_ne!(a, b);
    }
}
