//! # Tutorial: the paper's `P_{2×2}` example, end to end
//!
//! This module is documentation only — a guided tour of the reproduction
//! following the paper's own running example (Fig. 4: training with partition
//! `P_{2×2}` on four devices). Every code block is a doctest.
//!
//! ## 1. Four devices, one temporal primitive
//!
//! A partition sequence is Algorithm 1's input `𝒫`. The paper's Fig. 4 uses a
//! single `P_{2×2}`, which sees 4 devices as a 2×2 square and runs 2 temporal
//! steps per phase:
//!
//! ```
//! use primepar::partition::{PartitionSeq, Primitive};
//!
//! let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }])?;
//! assert_eq!(seq.num_devices(), 4);
//! assert_eq!(seq.temporal_steps(), 2);
//! // The same sequence in the paper's notation:
//! assert_eq!(seq.to_string(), "P2x2");
//! # Ok::<(), primepar::partition::PartitionError>(())
//! ```
//!
//! ## 2. DSIs: who holds which slice, when (Eqs. 4–6)
//!
//! Device `(r, c)` at forward step `t` holds the `N`-slice `(r + c + t) mod 2`
//! — so over the two steps it sums *both* N-slices locally and never needs an
//! all-reduce (feature 1):
//!
//! ```
//! use primepar::partition::{Dim, PartitionSeq, Phase, Primitive};
//! use primepar::topology::DeviceSpace;
//!
//! let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }])?;
//! let space = DeviceSpace::new(2);
//! // Device 0b10 is (r, c) = (1, 0).
//! let dev = 2.into();
//! assert_eq!(seq.dsi(space, Phase::Forward, Dim::N, dev, 0), 1); // (1+0+0) mod 2
//! assert_eq!(seq.dsi(space, Phase::Forward, Dim::N, dev, 1), 0); // (1+0+1) mod 2
//! assert!(seq.allreduce_indicator(Phase::Forward, false).is_empty());
//! # Ok::<(), primepar::partition::PartitionError>(())
//! ```
//!
//! ## 3. The ring schedule (Table 1)
//!
//! Between steps, `I` arrives from the right neighbor and `W` from below —
//! derived from the DSIs, not hard-coded:
//!
//! ```
//! use primepar::partition::{ring_transfers, PartitionSeq, Phase, Primitive, TensorKind};
//!
//! let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }])?;
//! let step0 = ring_transfers(&seq, Phase::Forward, 0);
//! assert_eq!(step0[0].tensor, TensorKind::Input);
//! assert_eq!(step0[1].tensor, TensorKind::Weight);
//! // Nothing moves at the last forward step: the stash already aligns with
//! // the gradient phase (feature 3).
//! assert!(ring_transfers(&seq, Phase::Forward, 1).is_empty());
//! # Ok::<(), primepar::partition::PartitionError>(())
//! ```
//!
//! ## 4. It really trains (the functional executor)
//!
//! The whole point: running forward/backward/gradient under the schedule on
//! real tensors gives exactly serial training:
//!
//! ```
//! use primepar::exec::{reference, DistLinear, LinearShape};
//! use primepar::partition::{PartitionSeq, Primitive};
//! use primepar::tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(4);
//! let shape = LinearShape { b: 2, m: 4, n: 4, k: 4 };
//! let i = Tensor::randn(vec![2, 4, 4], 1.0, &mut rng);
//! let w = Tensor::randn(vec![4, 4], 1.0, &mut rng);
//! let g = Tensor::randn(vec![2, 4, 4], 1.0, &mut rng);
//!
//! let seq = PartitionSeq::new(vec![Primitive::Temporal { k: 1 }])?;
//! let mut dist = DistLinear::new(seq, shape)?;
//! let (o, _, _, w_new) = dist.train_step(&i, &w, &g, 0.1)?;
//! let (o_ref, _, _, w_ref) = reference::train_step(&i, &w, &g, 0.1)?;
//! assert!(o.allclose(&o_ref, 1e-4));
//! assert!(w_new.allclose(&w_ref, 1e-4));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## 5. From one operator to a model (the optimizer)
//!
//! The segmented DP searches the whole extended space per operator and picks
//! where the temporal primitive pays off:
//!
//! ```
//! use primepar::graph::ModelConfig;
//! use primepar::search::{Planner, PlannerOptions};
//! use primepar::sim::simulate_model;
//! use primepar::topology::Cluster;
//!
//! let cluster = Cluster::v100_like(4);
//! let model = ModelConfig::opt_6_7b();
//! let graph = model.layer_graph(8, 512);
//! let plan = Planner::new(&cluster, &graph, PlannerOptions::default())
//!     .optimize(model.layers);
//! let report = simulate_model(&cluster, &graph, &plan.seqs, model.layers, 8.0 * 512.0);
//! assert!(report.tokens_per_second > 0.0);
//! ```
//!
//! From here: [`crate::compare_systems`] reproduces the paper's Fig. 7/8
//! comparisons, the `primepar-bench` crate's `figures` binary regenerates
//! every figure, and `EXPERIMENTS.md` records paper-vs-measured.
