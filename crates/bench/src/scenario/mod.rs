//! The scenario compiler: declarative spec → validated plan → executed
//! campaign.
//!
//! The evaluation is a matrix of worlds × schemes × fault levels ×
//! metrics. Instead of hard-coding that matrix in per-experiment Rust,
//! each campaign is described by a small declarative `.scn` file under
//! `specs/` and compiled through a three-layer pipeline:
//!
//! 1. **front-end** ([`spec`]) — [`parse`] turns the text into a typed
//!    [`ScenarioSpec`] (world, schemes, fault plan, retry policy,
//!    contention, seeds, matrix sweeps, output options),
//!    with line/field-numbered [`ScenarioError`] diagnostics and a
//!    canonical [`ScenarioSpec::render`] (parse → render → parse is
//!    idempotent);
//! 2. **planner** ([`plan`]) — [`compile`] validates the spec against its
//!    campaign kind, folds in the command-line
//!    [`CliOverrides`](crate::CliOverrides) (precedence: CLI > spec >
//!    driver default), and expands the matrix into a [`CampaignPlan`];
//! 3. **executor** ([`exec`]) — [`execute`] drives the existing
//!    simulators (freshness / caching / joint / chaos / streaming) and
//!    the [`per_seed`](crate::per_seed) runner off the plan.
//!
//! The specs are the only way to run an experiment: `omn-scn run eNN`
//! and `run_all` both compile the committed spec and execute the plan.
//! What each spec compiles to — plan summary and typed parameters — is
//! pinned by the `plan_summaries` golden. A brand-new sweep — different
//! seeds, axes, fault ladder, schemes — is a new spec file with zero new
//! Rust.

pub mod exec;
pub mod plan;
pub mod spec;

pub use exec::{compile_str, embedded, execute, EMBEDDED};
pub use plan::{compile, CampaignPlan, PlanPoint};
pub use spec::{
    parse, CampaignKind, ContentionSpec, FaultRung, LinkSpec, MatrixAxis, OutputSpec,
    PairwiseWorld, RetrySpec, RunLeg, RunSpec, ScenarioError, ScenarioSpec, WorldSpec,
};
