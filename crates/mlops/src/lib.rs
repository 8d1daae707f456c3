//! # opml-mlops
//!
//! The operational-ML substrate behind the course labs in *The Cost of
//! Teaching Operational ML* (SC Workshops '25). Each unit's lab deploys
//! real systems (Kubernetes, MLFlow, Ray, Triton, Argo, Prometheus-style
//! monitoring); this crate implements the **mechanisms** of those systems
//! in Rust, so each lab's workload runs miniature-but-real (the facade's
//! `labwork` module runs them unit by unit):
//!
//! | Course unit | Module(s) | What is implemented |
//! |---|---|---|
//! | 4. Model training at scale | [`tensor`], [`model`], [`precision`], [`allreduce`], [`ddp`], [`fsdp`] | dense/MLP models with real gradients, bf16 emulation, gradient accumulation, LoRA adapters, ring all-reduce (reduce-scatter + all-gather) over threads with parameter-server and tree baselines, data-parallel and fully-sharded training |
//! | 5. Training infrastructure | [`tracking`] | an MLflow-like experiment tracker: runs, params, metrics, system metrics, artifacts, concurrent ingest, best-run queries |
//! | 3. DevOps / MLOps | [`pipeline`], [`registry`], [`cicd`] | a DAG workflow engine (Argo-style) with retries and parallel stage execution; a model registry with staging/canary/production promotion; commit-triggered CI/CD with evaluation gates and auto-rollback |
//! | 6. Model serving | [`serving`], [`optimize`] | a dynamic-batching inference server simulation (Triton-style concurrency + batching) and real model-level optimizations: int8 quantization, operator fusion, magnitude pruning — applied to the actual models from [`model`] |
//! | 7. Monitoring & evaluation | [`monitoring`], [`drift`], [`eval`] | a metrics time-series store with alert rules; KS/PSI drift detection on sliding windows; offline slice/behavioural evaluation and online A/B, canary, and shadow evaluation |
//! | 8. Data systems | [`data`] | batch ETL, a broker–producer–consumer streaming pipeline over channels, and a feature store unifying both |
//!
//! Everything is deterministic given a seed and runs at laptop scale. The
//! crate is a demonstration of what the course teaches and feeds no paper
//! number: lab durations and costs come from `opml-cohort`'s calibrated
//! behaviour model (see DESIGN.md's substitution table).

pub mod allreduce;
pub mod cicd;
pub mod data;
pub mod ddp;
pub mod drift;
pub mod eval;
pub mod fsdp;
pub mod model;
pub mod modelparallel;
pub mod monitoring;
pub mod optimize;
pub mod orchestrator;
pub mod pipeline;
pub mod precision;
pub mod raycluster;
pub mod registry;
pub mod serving;
pub mod tensor;
pub mod tracking;

pub use allreduce::{all_reduce, AllReduceStats, ReduceAlgo};
pub use model::{Dataset, Mlp};
pub use tensor::Matrix;
