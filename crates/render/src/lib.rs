//! # uniq-render
//!
//! The application layer the paper motivates (§1): once UNIQ has produced
//! a personalized HRTF, applications place virtual sound sources around
//! the listener — a "follow me" navigation voice, the members of a
//! virtual meeting, the instruments of an AR/VR orchestra.
//!
//! * [`scene`] — world-space sources and the listener pose.
//! * [`engine`] — snapshot rendering: world → head frame → HRTF filtering
//!   → mixdown.
//! * [`motion`] — block rendering with crossfades for moving sources and
//!   rotating heads ("even if the head rotates ... the piano and the
//!   violin remain fixed in their absolute directions").
//! * [`wav`] — 16-bit stereo WAV output so renders can actually be heard.
//! * [`room`] — RIR ⊛ HRTF playback (the §7 "Integrating Room Multipath"
//!   extension): image-source echoes spatialized through the personal HRTF.
//! * [`metrics`] — objective externalization proxies (§7): log-spectral
//!   distortion, ITD/ILD errors, combined score.

// A result crate: its output feeds the evaluation numbers, so it must
// be deterministic and panic-free (DESIGN.md §9).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod motion;
pub mod room;
pub mod scene;
pub mod wav;

pub use engine::BinauralEngine;
pub use scene::{ListenerPose, Scene, SceneSource};
