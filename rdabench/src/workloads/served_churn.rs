//! `served_churn`: the same server and page mix beside writes. Twelve
//! plans compete for a cache of eight (evictions happen), a
//! `SnapshotStore` is attached, and every 64th op the client applies a
//! write batch, freezes the delta, appends it to the store and advances
//! the engine. Three batches of four touch a relation no plan reads
//! (plans carry, cursors resume); the fourth dirties join input `S`
//! (typed `CursorStale`, re-prepare, rebuild). A read gain bought with
//! write cost shows here.

use super::served::{Config, Served, STALE_PAGE, WRITE};
use crate::data;

pub struct ServedChurn;

impl Served for ServedChurn {
    const NAME: &'static str = "served_churn";
    /// In zipf order: the expensive join plans are the hot head that
    /// stays cached, the cheap scans and covering plans the tail that
    /// gets evicted and built again.
    const CONFIG: Config = Config {
        requests: &[
            data::PATH_XYZ,
            data::PATH_ZYX,
            data::COVER_SUM,
            data::PRODUCT_LEX,
            data::SCAN_AB,
            data::FD_LEX,
            data::PATH_YXZ,
            data::COVER_LEX,
            data::SCAN_BA,
            data::PRODUCT_ALT,
            data::SCAN_SUM,
            data::PATH_YZX,
        ],
        plan_cache: 8,
        writes: true,
    };
    /// A clean page here is the hop of `served_pages` in two modes (the
    /// worker asleep after a long client write, or still awake), so its
    /// median does not repeat; the read this workload adds is the stale
    /// request that has to rebuild before its first rows.
    const READ: usize = STALE_PAGE;
    const HEAVY: usize = WRITE;
    /// Two blocks a round.
    const UNITS_PER_SECOND: f64 = 3.0;
    const SETUP_REPS: usize = 5;
}
