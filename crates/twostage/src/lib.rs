//! Two-stage visual-grounding baselines (the systems of Table 2/Table 5).
//!
//! The paper's comparison targets follow the classical pipeline its
//! introduction criticises: **stage i** proposes candidate regions with a
//! stand-alone detector (Faster R-CNN for the originals); **stage ii**
//! scores every proposal against the query with a matching network and
//! returns the best match. Both stages are reproduced here from scratch:
//!
//! * [`ProposalNetwork`] — a query-*agnostic* RPN (own backbone, objectness
//!   and box regression per anchor, NMS), the Faster-R-CNN stand-in whose
//!   time Table 5 reports as "(+0.29s)";
//! * [`RoiExtractor`] — RoI pooling of backbone features per proposal;
//! * [`Listener`] — a joint-embedding matcher (GRU query encoder vs.
//!   projected region features), after [42]'s listener;
//! * [`Speaker`] — a conditional GRU language model scoring `P(query |
//!   region)`, after [42]'s speaker;
//! * MMI — maximum-mutual-information contrastive training, a `mmi_margin`
//!   flag on the listener/speaker configs ("+MMI" rows);
//! * [`EnsembleScorer`] — score-averaged "speaker+listener" combinations;
//! * [`TwoStageGrounder`] — the full inference path, which *really* runs
//!   stage i and then scores proposals one by one, so the latency gap to
//!   the one-stage YOLLO (Table 5) and the missed-target accuracy ceiling
//!   (§1 "Low accuracy") emerge from the same mechanisms as in the paper.

mod ensemble;
mod gridprop;
mod listener;
mod pipeline;
mod proposals;
mod roi;
mod speaker;

pub use ensemble::EnsembleScorer;
pub use gridprop::GridProposals;
pub use listener::{Listener, ListenerConfig};
pub use pipeline::{ProposalScorer, Proposer, TwoStageGrounder};
pub use proposals::{ProposalConfig, ProposalNetwork};
pub use roi::{crop_resize, CandidateCache, ProposalFeature, RoiExtractor};
pub use speaker::{Speaker, SpeakerConfig};
