//! One module per paper figure, plus the ablations.
//!
//! Every `run_*` function is self-contained: it synthesizes its workload,
//! prints the paper-shaped result table, and writes CSV artifacts.

pub mod ablations;
pub mod batch_scaling;
pub mod extensions;
pub mod fig16;
pub mod fig17;
pub mod fig18_20;
pub mod fig2;
pub mod fig21;
pub mod fig22;
pub mod fig5;
pub mod fig9;
pub mod robustness;
pub mod serve_scaling;
pub mod store_scaling;

use crate::cohort::{eval_config, run_cohort, VolunteerRun};
use std::sync::OnceLock;

/// Cohort cache shared by Figs 17–22 (personalization is the expensive
/// step; run it once).
pub fn cohort() -> &'static [VolunteerRun] {
    static COHORT: OnceLock<Vec<VolunteerRun>> = OnceLock::new();
    COHORT.get_or_init(|| {
        println!("(personalizing the 5-volunteer cohort — cached for all figures)");
        run_cohort(&eval_config())
    })
}
