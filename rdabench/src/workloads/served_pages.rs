//! `served_pages`: read-only traffic through `rda_serve` on the small
//! tier, six plans in a cache of 64. The access kernel is a small share
//! of a page; the admission hop and cursor decode/validate/encode are
//! the rest. A kernel change must not move this workload.

use super::served::{Config, Served, BATCH, PAGE};
use crate::data;
use rda_core::Engine;

pub struct ServedPages;

impl Served for ServedPages {
    const NAME: &'static str = "served_pages";
    const CONFIG: Config = Config {
        requests: &[
            data::PATH_XYZ,
            data::PATH_ZYX,
            data::PRODUCT_LEX,
            data::FD_LEX,
            data::COVER_SUM,
            data::SCAN_AB,
        ],
        plan_cache: Engine::DEFAULT_PLAN_CACHE_CAPACITY,
        writes: false,
    };
    const READ: usize = PAGE;
    const HEAVY: usize = BATCH;
    const UNITS_PER_SECOND: f64 = 260.0;
    const SETUP_REPS: usize = 8;
}
