use crate::{transformer_layer_graph, ActKind, Axis, Edge, Graph, NormKind, OpKind, Operator};

/// Architecture of one evaluated model family member (paper §6,
/// "Environment and models": OPT 6.7B/175B, Llama2 7B/70B, BLOOM 7B1/176B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Model name as used in the paper's figures.
    pub name: &'static str,
    /// Number of transformer layers.
    pub layers: u64,
    /// Hidden dimension.
    pub hidden: u64,
    /// Number of attention (query) heads.
    pub heads: u64,
    /// Number of key/value heads (`== heads` for MHA, fewer for GQA).
    pub kv_heads: u64,
    /// MLP intermediate dimension.
    pub ffn: u64,
    /// Normalization flavour.
    pub norm: NormKind,
    /// Activation flavour.
    pub act: ActKind,
}

impl ModelConfig {
    /// OPT 6.7B.
    pub fn opt_6_7b() -> Self {
        ModelConfig {
            name: "OPT 6.7B",
            layers: 32,
            hidden: 4096,
            heads: 32,
            kv_heads: 32,
            ffn: 16384,
            norm: NormKind::Layer,
            act: ActKind::Relu,
        }
    }

    /// OPT 175B.
    pub fn opt_175b() -> Self {
        ModelConfig {
            name: "OPT 175B",
            layers: 96,
            hidden: 12288,
            heads: 96,
            kv_heads: 96,
            ffn: 49152,
            norm: NormKind::Layer,
            act: ActKind::Relu,
        }
    }

    /// Llama2 7B.
    pub fn llama2_7b() -> Self {
        ModelConfig {
            name: "Llama2 7B",
            layers: 32,
            hidden: 4096,
            heads: 32,
            kv_heads: 32,
            ffn: 11008,
            norm: NormKind::Rms,
            act: ActKind::Silu,
        }
    }

    /// Llama2 70B (grouped-query attention with 8 KV heads).
    pub fn llama2_70b() -> Self {
        ModelConfig {
            name: "Llama2 70B",
            layers: 80,
            hidden: 8192,
            heads: 64,
            kv_heads: 8,
            ffn: 28672,
            norm: NormKind::Rms,
            act: ActKind::Silu,
        }
    }

    /// BLOOM 7B1.
    pub fn bloom_7b1() -> Self {
        ModelConfig {
            name: "BLOOM 7B1",
            layers: 30,
            hidden: 4096,
            heads: 32,
            kv_heads: 32,
            ffn: 16384,
            norm: NormKind::Layer,
            act: ActKind::Gelu,
        }
    }

    /// BLOOM 176B.
    pub fn bloom_176b() -> Self {
        ModelConfig {
            name: "BLOOM 176B",
            layers: 70,
            hidden: 14336,
            heads: 112,
            kv_heads: 112,
            ffn: 57344,
            norm: NormKind::Layer,
            act: ActKind::Gelu,
        }
    }

    /// A custom architecture — the workload generator for robustness tests
    /// and user models outside the paper's zoo.
    ///
    /// # Panics
    ///
    /// Panics unless `heads` divides `hidden` and `kv_heads` divides `heads`.
    #[allow(clippy::too_many_arguments)] // domain signature: all parameters are semantically distinct
    pub fn custom(
        name: &'static str,
        layers: u64,
        hidden: u64,
        heads: u64,
        kv_heads: u64,
        ffn: u64,
        norm: NormKind,
        act: ActKind,
    ) -> Self {
        assert!(hidden.is_multiple_of(heads), "heads must divide hidden");
        assert!(heads.is_multiple_of(kv_heads), "kv_heads must divide heads");
        ModelConfig {
            name,
            layers,
            hidden,
            heads,
            kv_heads,
            ffn,
            norm,
            act,
        }
    }

    /// A random plausible transformer architecture drawn from `rng` — used by
    /// property tests to fuzz the planner and simulator beyond the zoo.
    pub fn random(rng: &mut impl rand::Rng) -> Self {
        let embed = if rng.gen_bool(0.5) { 64 } else { 128 };
        let heads = 1u64 << rng.gen_range(2..7); // 4..64 heads
        let hidden = heads * embed;
        let kv_heads = if rng.gen_bool(0.25) { heads / 2 } else { heads };
        let ffn = hidden * rng.gen_range(2u64..5);
        let layers = 1u64 << rng.gen_range(2..6);
        let norm = if rng.gen_bool(0.5) {
            NormKind::Layer
        } else {
            NormKind::Rms
        };
        let act = match rng.gen_range(0..3) {
            0 => ActKind::Relu,
            1 => ActKind::Gelu,
            _ => ActKind::Silu,
        };
        ModelConfig::custom("random", layers, hidden, heads, kv_heads, ffn, norm, act)
    }

    /// All six evaluated models, in the paper's figure order.
    pub fn all() -> [ModelConfig; 6] {
        [
            ModelConfig::opt_6_7b(),
            ModelConfig::llama2_7b(),
            ModelConfig::bloom_7b1(),
            ModelConfig::opt_175b(),
            ModelConfig::llama2_70b(),
            ModelConfig::bloom_176b(),
        ]
    }

    /// Looks a zoo member up by a user-facing name. Matching is
    /// case-insensitive and ignores punctuation/whitespace, so `"opt-6.7b"`,
    /// `"OPT 6.7B"` and `"opt_6_7b"` all resolve to
    /// [`ModelConfig::opt_6_7b`]. Returns `None` for an empty or unknown
    /// name.
    pub fn by_name(name: &str) -> Option<ModelConfig> {
        fn canon(s: &str) -> String {
            s.chars()
                .filter(char::is_ascii_alphanumeric)
                .map(|c| c.to_ascii_lowercase())
                .collect()
        }
        let needle = canon(name);
        if needle.is_empty() {
            return None;
        }
        ModelConfig::all()
            .into_iter()
            .find(|m| canon(m.name).contains(&needle))
    }

    /// Per-head embedding dimension.
    pub fn embed(&self) -> u64 {
        self.hidden / self.heads
    }

    /// Approximate trainable parameter count of the full model (transformer
    /// layers only, as the experiments partition layers).
    pub fn param_count(&self) -> f64 {
        let g = self.layer_graph(1, 1);
        self.layers as f64 * g.param_elems()
    }

    /// Builds the single-layer computation graph (paper Fig. 6).
    pub fn layer_graph(&self, batch: u64, seq: u64) -> Graph {
        transformer_layer_graph(self, batch, seq)
    }

    /// The paper's Fig. 9 MLP block as a standalone graph: `add1` (anchor),
    /// `norm2`, `fc1`, `act`, `fc2`, `add2` with the residual skip — nodes
    /// 7..=12 of [`Self::layer_graph`], reindexed.
    pub fn mlp_block_graph(&self, batch: u64, seq: u64) -> Graph {
        let layer = self.layer_graph(batch, seq);
        let ops = layer.ops[7..=12].to_vec();
        let edges = layer
            .edges
            .iter()
            .filter(|e| e.src >= 7 && e.dst <= 12 && e.dst >= 7)
            .map(|e| {
                let mut e = e.clone();
                e.src -= 7;
                e.dst -= 7;
                e
            })
            .collect();
        Graph { ops, edges }
    }

    /// Vocabulary size (the paper's evaluation partitions transformer layers
    /// only; the endcaps below extend the zoo to a full deployable model).
    pub fn vocab(&self) -> u64 {
        match self.name {
            n if n.starts_with("OPT") => 50272,
            n if n.starts_with("Llama2") => 32000,
            n if n.starts_with("BLOOM") => 250880,
            _ => 32768,
        }
    }

    /// The model *endcaps* as a standalone chain graph:
    /// token embedding → anchor (the transformer stack stand-in) → final
    /// norm → LM head. A vocab split of the embedding (`Split(N)`) is
    /// Megatron's vocab-parallel embedding; a column split of the LM head
    /// (`Split(K)`) is its vocab-parallel output projection.
    pub fn endcap_graph(&self, batch: u64, seq: u64) -> Graph {
        let h = self.hidden;
        let vocab = self.vocab();
        let batch_axes = vec![(Axis::Batch, batch)];
        let seq_axes = vec![(Axis::Seq, seq)];
        let hidden_axes = vec![(Axis::Hidden, h)];
        let embedding = Operator {
            name: "embedding".into(),
            kind: OpKind::Embedding,
            extents: [batch, seq, vocab, h],
            axes: [
                batch_axes.clone(),
                seq_axes.clone(),
                vec![(Axis::Qkv, vocab)], // vocab gets its own (reused) axis id
                hidden_axes.clone(),
            ],
        };
        let anchor = Operator {
            name: "stack".into(),
            kind: OpKind::Elementwise,
            extents: [batch, seq, 1, h],
            axes: [
                batch_axes.clone(),
                seq_axes.clone(),
                vec![],
                hidden_axes.clone(),
            ],
        };
        let norm_f = Operator {
            name: "norm_f".into(),
            kind: OpKind::Norm(self.norm),
            extents: [batch, seq, 1, h],
            axes: [
                batch_axes.clone(),
                seq_axes.clone(),
                vec![],
                hidden_axes.clone(),
            ],
        };
        let lm_head = Operator {
            name: "lm_head".into(),
            kind: OpKind::Linear,
            extents: [batch, seq, h, vocab],
            axes: [batch_axes, seq_axes, hidden_axes, vec![(Axis::Qkv, vocab)]],
        };
        Graph {
            ops: vec![embedding, anchor, norm_f, lm_head],
            edges: vec![Edge::plain(0, 1), Edge::plain(1, 2), Edge::plain(2, 3)],
        }
    }

    /// The complete deployable model as one graph: token embedding, `layers`
    /// stacked transformer layers, final norm, LM head. The boundary
    /// operators differ, so this plans via the optimizer's non-repeating
    /// path (`optimize(1)`); prefer [`ModelConfig::layer_graph`] +
    /// layer-count composition for the paper's experiments.
    pub fn full_graph(&self, batch: u64, seq: u64, layers: usize) -> Graph {
        let endcaps = self.endcap_graph(batch, seq);
        let stacked = self.layer_graph(batch, seq).stack(layers.max(1));
        let offset = 1; // embedding shifts the stacked layer indices
        let mut ops = vec![endcaps.ops[0].clone()];
        ops.extend(stacked.ops.iter().cloned());
        let stack_last = ops.len() - 1;
        ops.push(endcaps.ops[2].clone()); // norm_f
        ops.push(endcaps.ops[3].clone()); // lm_head
        let mut edges = vec![Edge::plain(0, 1)];
        edges.extend(stacked.edges.iter().map(|e| {
            let mut e = e.clone();
            e.src += offset;
            e.dst += offset;
            e
        }));
        edges.push(Edge::plain(stack_last, stack_last + 1));
        edges.push(Edge::plain(stack_last + 1, stack_last + 2));
        Graph { ops, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_matches_cli_spellings() {
        for (spelling, expect) in [
            ("opt-6.7b", ModelConfig::opt_6_7b()),
            ("OPT 6.7B", ModelConfig::opt_6_7b()),
            ("opt_175b", ModelConfig::opt_175b()),
            ("llama2-70b", ModelConfig::llama2_70b()),
            ("bloom-7b1", ModelConfig::bloom_7b1()),
        ] {
            assert_eq!(ModelConfig::by_name(spelling), Some(expect), "{spelling}");
        }
        assert_eq!(ModelConfig::by_name("gpt-j"), None);
        assert_eq!(ModelConfig::by_name(""), None);
        assert_eq!(ModelConfig::by_name("--"), None);
    }

    #[test]
    fn parameter_counts_match_model_names() {
        // Layer parameters should land within ~35% of the nominal size
        // (embeddings and final head are excluded by design).
        let expectations = [
            (ModelConfig::opt_6_7b(), 6.7e9),
            (ModelConfig::opt_175b(), 175e9),
            (ModelConfig::llama2_7b(), 7e9),
            (ModelConfig::llama2_70b(), 70e9),
            (ModelConfig::bloom_7b1(), 7.1e9),
            (ModelConfig::bloom_176b(), 176e9),
        ];
        for (cfg, nominal) in expectations {
            let params = cfg.param_count();
            let ratio = params / nominal;
            assert!(
                (0.65..1.2).contains(&ratio),
                "{}: {params:.3e} params vs nominal {nominal:.3e} (ratio {ratio:.2})",
                cfg.name
            );
        }
    }

    #[test]
    fn embed_dimensions_are_conventional() {
        for cfg in ModelConfig::all() {
            let e = cfg.embed();
            assert!(e == 64 || e == 128, "{}: embed {e}", cfg.name);
        }
    }

    #[test]
    fn all_returns_six_distinct_models() {
        let all = ModelConfig::all();
        assert_eq!(all.len(), 6);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn endcap_graph_structure() {
        let cfg = ModelConfig::opt_6_7b();
        let g = cfg.endcap_graph(8, 2048);
        assert_eq!(g.ops.len(), 4);
        assert_eq!(g.ops[0].kind, OpKind::Embedding);
        assert_eq!(g.ops[0].extents[2], cfg.vocab());
        assert_eq!(g.ops[3].extents[3], cfg.vocab());
        assert_eq!(g.segments(), vec![(0, 3)]);
        g.validate_segmentation();
        // The two vocab-sized weights dominate the endcap parameters.
        assert!(g.param_elems() > 2.0 * (cfg.vocab() * cfg.hidden) as f64 * 0.99);
    }

    #[test]
    fn mlp_block_structure() {
        let g = ModelConfig::opt_175b().mlp_block_graph(8, 2048);
        assert_eq!(g.ops.len(), 6);
        assert_eq!(g.ops[2].name, "fc1");
        assert_eq!(g.ops[4].name, "fc2");
        // Residual skip add1 -> add2 survives reindexing as (0, 5).
        assert!(g.edges.iter().any(|e| e.src == 0 && e.dst == 5));
        assert_eq!(g.segments(), vec![(0, 5)]);
        g.validate_segmentation();
    }

    #[test]
    fn full_graph_structure() {
        let cfg = ModelConfig::opt_6_7b();
        let g = cfg.full_graph(4, 256, 2);
        // embedding + (12*2 + 1 shared-boundary layer ops) + norm_f + lm_head
        assert_eq!(g.ops.len(), 1 + 25 + 2);
        assert_eq!(g.ops[0].kind, OpKind::Embedding);
        assert_eq!(g.ops.last().unwrap().name, "lm_head");
        g.validate_segmentation();
    }

    #[test]
    fn vocab_sizes_are_model_specific() {
        assert_eq!(ModelConfig::opt_175b().vocab(), 50272);
        assert_eq!(ModelConfig::llama2_70b().vocab(), 32000);
        assert_eq!(ModelConfig::bloom_176b().vocab(), 250880);
    }

    #[test]
    fn gqa_only_for_llama2_70b() {
        for cfg in ModelConfig::all() {
            if cfg.name == "Llama2 70B" {
                assert!(cfg.kv_heads < cfg.heads);
            } else {
                assert_eq!(cfg.kv_heads, cfg.heads);
            }
        }
    }
}
