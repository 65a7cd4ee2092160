//! The 19 evaluation benchmarks of the RbSyn paper (Table 1).
//!
//! Each benchmark is a committed `benchmarks/<ID>.rbspec` file: the
//! method type, the models and library annotations it needs, and its
//! `spec … end` tests (§4). Seven *synthetic* benchmarks (S1–S7) exercise
//! individual features of the synthesizer; twelve *app* benchmarks
//! reconstruct methods from Discourse (A1–A4), Gitlab (A5–A8) and
//! Diaspora (A9–A12). We do not have the original apps' code or test
//! databases, so each app benchmark is a faithful reconstruction: the
//! models, library annotations, spec counts, assertion counts and
//! solution shapes match what Table 1 and §5 report, while the concrete
//! column names and seed data are ours.
//!
//! * **Synthetic (S1–S7, §5.1)**: minimal examples over the overview's
//!   blog schema, `User {name, username}` and `Post {author, title,
//!   slug}` (Fig. 1).
//! * **Discourse (A1–A4)**: a Rails discussion platform. The benchmarks
//!   are effectful methods on its `User` model plus site-setting globals;
//!   the model has the columns those methods touch, and the specs follow
//!   the behaviours the paper describes (account activation, unstaging
//!   placeholder accounts, clearing global notices, site-setting checks).
//! * **Gitlab (A5–A8)**: a Rails DevOps platform. The benchmarks cover
//!   building discussions, disabling two-factor authentication, and the
//!   issue state machine. The paper notes RbSyn synthesizes
//!   `Issue#close`/`#reopen` without the `state_machine` gem; ours
//!   likewise flip the state columns directly.
//! * **Diaspora (A9–A12)**: a federated social network of pods. The
//!   benchmarks cover pod health scheduling (the `reload`-in-assertion
//!   pathology of §5.2), invitation processing and email confirmation.
//!
//! Every benchmark is a [`Benchmark`]: a builder producing a fresh
//! environment + problem pair plus the paper's expected statistics, so the
//! experiment harness can regenerate Table 1, Fig. 7 and Fig. 8.

pub mod helpers;
pub mod registry;

pub use registry::{
    all_benchmarks, benchmark, benchmarks_from_dir, Benchmark, BuildFn, Expected, Group, OptionsFn,
};
