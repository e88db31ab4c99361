//! Counters every server in the workspace publishes.
//!
//! The serving loop itself is `hedge::TcpServer`; this module keeps
//! the statistics record it (and everything that reads a server from
//! outside: tests, figures, the benchmark) shares.

/// Statistics from a server run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Commands executed, counted when their service starts.
    pub commands: u64,
    /// Commands the sweeper thread served. `hedge::TcpServer` serves
    /// the rest of `commands` in place, on the reader that decoded
    /// them (`commands − sweeps`).
    pub sweeps: u64,
    /// Total execution cost (elementary ops) served: the full cost of
    /// every command that ran to its end, and of a command stopped in
    /// service (`hedge::TcpServer`) only the units burned until then
    /// (charged in full when service starts, the rest handed back
    /// when it is stopped).
    pub total_cost: u64,
    /// Commands stopped in service by their client's `CANCEL`.
    pub aborted: u64,
    /// Protocol errors encountered (connection input was discarded).
    pub protocol_errors: u64,
}
