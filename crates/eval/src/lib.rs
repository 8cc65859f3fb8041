//! Experiment harness regenerating every table and figure of the paper.
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1` | Table I — architectures and train/validation accuracies |
//! | `table2` | Table II — out-of-pattern rates and warning precision per γ |
//! | `fig2` | Figure 2 — the abstraction-coarseness spectrum (γ sweep to saturation) |
//! | `case_study` | Section III case study / Figure 3 — monitored front-car selection |
//! | `refinement` | Section V item (2) ablation — binary monitor vs box/DBM numeric refinements |
//! | `drift` | Section I claim — distribution shift surfacing as out-of-pattern warnings, with detection latency |
//! | `selection` | Section II ablation — gradient saliency vs variance vs random neuron selection |
//! | `throughput` | ROADMAP north star — parallel `MonitorEngine` QPS vs sequential checking, with verdict-equivalence verification |
//! | `online_adaptation` | Section IV deployment loop — drift stream, operator-confirmed enrichment, hot snapshot swap, persistence (`results/online.json`; exits non-zero when the out-of-pattern rate fails to drop) |
//! | `graded` | graded distance verdicts — per-stream distance histograms, nearest-class misclassification attribution, bounded-vs-unbounded DP speedup, per-class drift (`results/graded.json`; exits non-zero when the bounded DP disagrees, serving diverges from sequential grading, or attribution fails to beat the baseline) |
//! | `layered` | multi-layer monitoring — Any/All/Majority detection-vs-FPR vs the single-layer baseline, layered engine ≡ sequential equivalence, marginal cost per extra monitored layer (`results/layered.json`; exits non-zero when serving diverges, Any detects less than the baseline, or extra layers add forward passes) |
//! | `compiled` | compiled zone evaluators — compiled-vs-walked speedup per query kind plus fast-path census (`results/compiled.json`; exits non-zero when any compiled answer diverges from the walked oracle or the batched membership speedup falls below 2x) |
//! | `gateway` | the TCP wire boundary — loopback soak with concurrent clients, saturation-burst shedding, malformed-byte abuse (`results/gateway.json`; exits non-zero on any lost request, wire/in-process verdict divergence, missing typed shed response, or a server that stops serving) |
//! | `complexity` | the BDD's complexity claim (Section I) and Section V's refinement costs — log-log slopes of query time against width and stored patterns for `BddZone`, `ExactZone`, `IntervalZone` and `DbmZone` (`results/complexity.json`; exits non-zero when a slope leaves the bound stated in the module) |
//! | `forward` | the allocation-free prepared forward pass — prepared weights + reused scratch vs the allocating baseline on the dense serving fixture and conv networks 1 and 2, with a counting global allocator (`results/forward.json`; exits non-zero when the prepared path allocates in steady state, the dense single-row speedup falls below 1.3x, or any row diverges) |
//!
//! Each binary prints the paper-format rows and writes machine-readable
//! JSON under `results/`.  Run with `--full` for paper-scale workloads
//! (slower); the default "fast" profile keeps the same shape with smaller
//! sample counts.  All runs are seeded and deterministic.
//!
//! The networks are trained on the procedural datasets of [`naps_data`]
//! (see DESIGN.md §4 for the MNIST/GTSRB substitution argument), so
//! absolute numbers differ from the paper while the qualitative shape —
//! out-of-pattern rate falling and warning precision rising with γ —
//! is the reproduction target recorded in EXPERIMENTS.md.

pub mod case_study;
pub mod compiled;
pub mod complexity;
pub mod config;
pub mod drift;
pub mod fig2;
pub mod forward;
pub mod gateway;
pub mod graded;
pub mod layered;
pub mod online;
pub mod refinement;
pub mod report;
pub mod selection;
pub mod streams;
pub mod table1;
pub mod table2;
pub mod throughput;
pub mod trained;

pub use config::RunConfig;
