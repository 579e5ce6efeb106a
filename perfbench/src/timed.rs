//! A delegating [`Service`] that times the calls the traffic driver
//! makes into the VI stack, so the traced run can split a traffic
//! workload's time between vi-core/vi-apps (`step_round`) and the
//! vi-traffic driver (everything else in `drive_recorded`) without
//! touching either crate.

use std::time::Instant;
use vi_radio::trace::ChannelStats;
use vi_telemetry::{CausalRecorder, FlightRecorder};
use vi_traffic::service::WorldTotals;
use vi_traffic::{AppKind, AuditRecord, Completion, OpDesc, Request, Service};

/// Wraps a service; every trait method forwards to it unchanged.
pub struct TimedService {
    inner: Box<dyn Service>,
    /// Wall-clock nanoseconds of each `step_round` call, in call order
    /// (one per virtual round).
    pub step_ns: Vec<u64>,
    /// Total wall-clock nanoseconds spent in `submit`.
    pub submit_ns: u64,
}

impl TimedService {
    /// Wraps `inner` with empty timers.
    pub fn new(inner: Box<dyn Service>) -> Self {
        TimedService {
            inner,
            step_ns: Vec::new(),
            submit_ns: 0,
        }
    }

    /// Total wall-clock nanoseconds spent in `step_round`.
    pub fn step_total_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Service for TimedService {
    fn app(&self) -> AppKind {
        self.inner.app()
    }

    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn submit(&mut self, client: usize, req: &Request) -> OpDesc {
        let t = Instant::now();
        let op = self.inner.submit(client, req);
        self.submit_ns += elapsed_ns(t);
        op
    }

    fn step_round(&mut self) -> Vec<Completion> {
        let t = Instant::now();
        let done = self.inner.step_round();
        self.step_ns.push(elapsed_ns(t));
        done
    }

    fn drain_audit(&mut self) -> Vec<AuditRecord> {
        self.inner.drain_audit()
    }

    fn set_telemetry(&mut self, causal: CausalRecorder, flight: FlightRecorder) {
        self.inner.set_telemetry(causal, flight);
    }

    fn forget(&mut self, id: u64) {
        self.inner.forget(id);
    }

    fn virtual_round(&self) -> u64 {
        self.inner.virtual_round()
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }

    fn world_totals(&self) -> WorldTotals {
        self.inner.world_totals()
    }
}
