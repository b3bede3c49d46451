//! # uniq-cli
//!
//! Command-line interface to the UNIQ reproduction. The binary is `uniq`:
//!
//! ```text
//! uniq personalize --seed 42 --out me.uniqhrtf [--anechoic] [--grid 5]
//! uniq info --table me.uniqhrtf
//! uniq render --table me.uniqhrtf --theta 60 --signal music --out out.wav
//! uniq aoa --table me.uniqhrtf --theta 60 --signal speech
//! ```
//!
//! The argument parser is intentionally tiny (flag/value pairs only) so
//! the crate stays dependency-free.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
