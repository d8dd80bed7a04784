//! Typed service errors.

use crate::cursor::CursorError;
use rda_core::PlanError;

/// Why a resumed cursor cannot continue its sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum StaleReason {
    /// A relation the plan reads changed content since the cursor was
    /// issued: the ranked sequence the cursor indexes into no longer
    /// exists, so silently resuming would skip or repeat answers. The
    /// client must re-prepare and restart (or re-anchor by value).
    DirtyDependency {
        /// The relation whose content moved.
        relation: String,
        /// The content version the cursor was issued against.
        cursor_version: u64,
        /// The version now served (`None`: the relation is gone).
        current_version: Option<u64>,
    },
    /// The served snapshot does not descend from the cursor's snapshot
    /// (the engine was pointed at an unrelated or older lineage), so
    /// no clean/dirty comparison is even meaningful.
    UnrelatedSnapshot {
        /// The snapshot uid the cursor was issued against.
        cursor_uid: u64,
    },
}

impl std::fmt::Display for StaleReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StaleReason::DirtyDependency {
                relation,
                cursor_version,
                current_version,
            } => {
                write!(
                    f,
                    "relation {relation:?} changed under the cursor (version {cursor_version} -> {current_version:?})"
                )
            }
            StaleReason::UnrelatedSnapshot { cursor_uid } => {
                write!(
                    f,
                    "served snapshot does not descend from cursor snapshot {cursor_uid}"
                )
            }
        }
    }
}

/// Everything a service call can fail with. Every variant is a normal
/// outcome the client is expected to handle; none of them poison the
/// session or the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Every execution slot is held and the queue behind them is
    /// full: the server is shedding load rather than buffering
    /// unboundedly. Back off and retry.
    Overloaded {
        /// The configured queue bound that was hit.
        queue_limit: usize,
    },
    /// The request waited for an execution slot (or at the pause
    /// gate) past its deadline and was dropped without executing.
    DeadlineExceeded,
    /// The pagination token failed to decode (see [`CursorError`]).
    BadCursor(CursorError),
    /// The token decoded but its sequence cannot be resumed (see
    /// [`StaleReason`]); [`Session::repair`](crate::Session::repair)
    /// returns a cursor on the fresh sequence.
    CursorStale(StaleReason),
    /// The token names a request key this server never prepared (e.g.
    /// a token from a different server process).
    UnknownQuery {
        /// The canonical request key the token carried.
        request_key: String,
    },
    /// Planning failed (classification rejected the order, unknown
    /// relation, ...).
    Plan(PlanError),
    /// The request died inside the server — a panic caught by the
    /// request's fence. The failure is contained to this one request:
    /// the session, its cursors, and the server all remain usable, and
    /// retrying the identical request is safe (requests are
    /// read-only).
    Internal {
        /// Best-effort description (typically the panic message).
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queue_limit } => {
                write!(
                    f,
                    "server overloaded: admission queue at its bound of {queue_limit}"
                )
            }
            ServeError::DeadlineExceeded => write!(f, "request deadline expired while waiting"),
            ServeError::BadCursor(e) => write!(f, "bad cursor: {e}"),
            ServeError::CursorStale(r) => write!(f, "cursor stale: {r}"),
            ServeError::UnknownQuery { request_key } => {
                write!(f, "no prepared query for request key {request_key:?}")
            }
            ServeError::Plan(e) => write!(f, "planning failed: {e}"),
            ServeError::Internal { detail } => {
                write!(f, "request failed inside the server: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::BadCursor(e) => Some(e),
            ServeError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CursorError> for ServeError {
    fn from(e: CursorError) -> Self {
        ServeError::BadCursor(e)
    }
}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError::Plan(e)
    }
}
