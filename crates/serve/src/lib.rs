//! # syno-serve — the multi-tenant serving layer
//!
//! A long-running `syno-serve` daemon multiplexes many concurrent search
//! sessions over **one** shared warm [`Store`](syno_store::Store) and
//! **one** shared evaluation pool:
//!
//! * [`protocol`] — the dependency-free, length-prefixed wire protocol:
//!   typed [`Frame`]s over `syno_core::codec`'s checksummed envelope,
//!   versioned payloads, spoken over TCP or Unix sockets;
//! * `event_loop` (crate-private) — one readiness-driven thread (`poll(2)`
//!   over non-blocking sockets, woken by a self-pipe mailbox) carries
//!   every client connection: no per-connection threads, no timer polls;
//! * [`daemon`] — the session manager: per-tenant admission control and
//!   step budgets, and one session table whose records hold each
//!   session's [`CancelToken`](syno_search::CancelToken) and frames
//!   (sessions outlive sockets; `Attach` replays them bit-identically
//!   after a disconnect, until the record is retired one idle period
//!   after its session ends), and the shared
//!   [`EvalPool`](syno_search::EvalPool) plus in-flight
//!   [`CoalesceTable`](syno_search::CoalesceTable) that make concurrent
//!   tenants train each candidate exactly once, and the
//!   [`SynthMemo`](syno_search::SynthMemo) that lets sessions on one spec
//!   filter each action path once;
//! * [`client`] — [`SynoClient`], the blocking client handle: submit
//!   sessions, stream events, reattach dropped sessions
//!   ([`SynoClient::attach`]), poll status, request graceful shutdown;
//! * [`transport`] — TCP / Unix-socket streams behind one enum;
//! * [`signal`] — dependency-free SIGINT handling over a self-pipe.
//!
//! Lifecycle: shutdown (handle, `Shutdown` frame, or SIGINT) drains
//! in-flight evaluations, journals each session's final checkpoint to
//! the store, then answers every pending client with terminal frames —
//! see the [`daemon`] module docs for the exact ordering.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod client;
pub mod daemon;
mod event_loop;
pub mod protocol;
pub mod signal;
pub mod transport;

pub use client::{ClientSession, ServeError, SessionMessage, SynoClient};
pub use daemon::{Daemon, DaemonHandle, ServeConfig};
pub use protocol::{
    wire_event, DaemonStatus, Frame, ProtocolError, SearchRequest, SessionStatus, WireCandidate,
    WireCandidateSet, WireEvent, WireStoreStats,
};
