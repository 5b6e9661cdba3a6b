//! The memory controller: request queue, scheduling policy, command
//! issue and completion tracking.

use crate::bank::Bank;
use crate::timing::DramConfig;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Scheduling policy of the controller.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// First-ready FCFS: row hits are served first (in age order), then
    /// the oldest request opens its row. The paper's baseline.
    FrFcfs,
    /// Strict in-order service of the oldest request (ablation baseline).
    Fcfs,
}

/// A request presented to the DRAM channel.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramRequest {
    /// Byte address (within this channel's space).
    pub addr: u64,
    /// `true` for writes.
    pub is_write: bool,
    /// Caller correlation tag.
    pub tag: u64,
    /// Cycle the request entered the queue.
    pub arrival: u64,
}

impl DramRequest {
    /// A read request.
    pub fn read(addr: u64, tag: u64, arrival: u64) -> Self {
        DramRequest { addr, is_write: false, tag, arrival }
    }

    /// A write request.
    pub fn write(addr: u64, tag: u64, arrival: u64) -> Self {
        DramRequest { addr, is_write: true, tag, arrival }
    }
}

/// A queued request with its address decode cached: the schedulers
/// re-inspect every queue entry's (bank, row) each cycle, and the decode
/// divides by runtime values (`row_bytes`, `banks`), so it is computed
/// once at enqueue instead of O(queue) times per scan.
#[derive(Copy, Clone, Debug)]
struct QueuedRequest {
    req: DramRequest,
    bank: usize,
    row: u64,
}

/// A completed request, available to the caller at `done`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The original request.
    pub request: DramRequest,
    /// Cycle at which the last data beat left the pins.
    pub done: u64,
}

/// Controller statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests refused (queue full).
    pub refused: u64,
    /// Completed reads.
    pub reads_done: u64,
    /// Completed writes.
    pub writes_done: u64,
    /// Activates issued (row opens).
    pub activates: u64,
    /// Precharges issued (row closes).
    pub precharges: u64,
    /// Cycles the data pins were transferring.
    pub data_bus_busy: u64,
    /// Cycles with at least one request pending (queued or in flight).
    pub busy_cycles: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
    /// Total cycles observed.
    pub cycles: u64,
    /// Sum of queue residency over completed requests (for mean latency).
    pub latency_sum: u64,
}

impl DramStats {
    /// DRAM efficiency: fraction of pending time the data pins were busy
    /// (the paper's definition in Section V-E).
    pub fn efficiency(&self) -> f64 {
        if self.busy_cycles == 0 {
            return 0.0;
        }
        self.data_bus_busy as f64 / self.busy_cycles as f64
    }

    /// Row-hit rate: fraction of column commands served from an already
    /// open row (requests that did not need their own activate).
    pub fn row_hit_rate(&self) -> f64 {
        let cas = self.reads_done + self.writes_done;
        if cas == 0 {
            return 0.0;
        }
        (cas.saturating_sub(self.activates)) as f64 / cas as f64
    }

    /// Mean request latency (arrival to data completion).
    pub fn avg_latency(&self) -> f64 {
        let done = self.reads_done + self.writes_done;
        if done == 0 {
            return 0.0;
        }
        self.latency_sum as f64 / done as f64
    }
}

/// One DRAM channel with its scheduler (see the crate-level example).
#[derive(Clone, Debug)]
pub struct MemoryController {
    cfg: DramConfig,
    policy: SchedulingPolicy,
    banks: Vec<Bank>,
    queue: VecDeque<QueuedRequest>,
    in_flight: VecDeque<Completion>,
    /// Earliest cycle the shared data bus is free.
    bus_free: u64,
    /// Last ACTIVATE cycle on any bank (tRRD).
    last_activate: Option<u64>,
    /// Next scheduled refresh command.
    next_refresh: u64,
    /// Cycle until which the whole channel is blocked by a refresh.
    refresh_until: u64,
    stats: DramStats,
}

impl MemoryController {
    /// Creates an FR-FCFS controller.
    ///
    /// # Panics
    ///
    /// Panics if the timing parameters are inconsistent.
    pub fn new(cfg: DramConfig) -> Self {
        Self::with_policy(cfg, SchedulingPolicy::FrFcfs)
    }

    /// Creates a controller with an explicit scheduling policy.
    ///
    /// # Panics
    ///
    /// Panics if the timing parameters are inconsistent.
    pub fn with_policy(cfg: DramConfig, policy: SchedulingPolicy) -> Self {
        cfg.timings.validate().expect("invalid DRAM timings");
        MemoryController {
            policy,
            banks: vec![Bank::new(); cfg.banks],
            queue: VecDeque::with_capacity(cfg.queue_capacity),
            in_flight: VecDeque::new(),
            bus_free: 0,
            last_activate: None,
            next_refresh: cfg.timings.t_refi.max(1),
            refresh_until: 0,
            stats: DramStats::default(),
            cfg,
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Current statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// `true` if the request queue has room.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.cfg.queue_capacity
    }

    /// Requests queued or being transferred.
    pub fn pending(&self) -> usize {
        self.queue.len() + self.in_flight.len()
    }

    /// Enqueues a request.
    ///
    /// # Errors
    ///
    /// Returns the request back if the queue is full.
    pub fn push(&mut self, req: DramRequest) -> Result<(), DramRequest> {
        if !self.can_accept() {
            self.stats.refused += 1;
            return Err(req);
        }
        self.stats.accepted += 1;
        let bank = self.cfg.bank_of(req.addr);
        let row = self.cfg.row_of(req.addr);
        self.queue.push_back(QueuedRequest { req, bank, row });
        Ok(())
    }

    /// Pops the next completion whose data finished by `now`.
    pub fn pop_completed(&mut self, now: u64) -> Option<Completion> {
        match self.in_flight.front() {
            Some(c) if c.done <= now => self.in_flight.pop_front(),
            _ => None,
        }
    }

    /// Advances the channel by one DRAM clock, issuing at most one command.
    pub fn step(&mut self, now: u64) {
        self.stats.cycles += 1;
        if self.pending() > 0 {
            self.stats.busy_cycles += 1;
        }
        // Refresh: block the whole channel for tRFC every tREFI. Issued
        // lazily once all banks can precharge (closed rows reopen after).
        if self.cfg.timings.t_refi > 0 && now >= self.next_refresh {
            let all_idle =
                self.banks.iter().all(|b| b.open_row().is_none() || b.can_precharge(now));
            if all_idle {
                for b in &mut self.banks {
                    if b.open_row().is_some() {
                        b.precharge(now, &self.cfg.timings);
                        self.stats.precharges += 1;
                    }
                }
                self.refresh_until = now + self.cfg.timings.t_rfc;
                self.next_refresh += self.cfg.timings.t_refi;
                self.stats.refreshes += 1;
            }
        }
        if now < self.refresh_until {
            return;
        }
        match self.policy {
            SchedulingPolicy::FrFcfs => self.step_frfcfs(now),
            SchedulingPolicy::Fcfs => self.step_fcfs(now),
        }
    }

    fn rrd_ok(&self, now: u64) -> bool {
        match self.last_activate {
            Some(t) => now >= t + self.cfg.timings.t_rrd,
            None => true,
        }
    }

    fn issue_cas(&mut self, idx: usize, now: u64) {
        let QueuedRequest { req, bank, row } = self.queue.remove(idx).expect("index valid");
        self.banks[bank].cas(row, now);
        let burst = self.cfg.burst_cycles();
        let start = (now + self.cfg.timings.t_cl).max(self.bus_free);
        let done = start + burst;
        self.bus_free = done;
        self.stats.data_bus_busy += burst;
        if req.is_write {
            self.stats.writes_done += 1;
        } else {
            self.stats.reads_done += 1;
        }
        self.stats.latency_sum += done.saturating_sub(req.arrival);
        // Keep completions sorted by done time (bus serialization makes
        // later issues finish later, so push_back preserves order).
        self.in_flight.push_back(Completion { request: req, done });
    }

    fn step_frfcfs(&mut self, now: u64) {
        // 1. Oldest row hit whose bank may issue and whose data slot is
        //    available.
        let hit = self.queue.iter().position(|r| self.banks[r.bank].can_cas(r.row, now));
        if let Some(idx) = hit {
            self.issue_cas(idx, now);
            return;
        }
        // 2. Oldest request whose bank is closed and may activate.
        if self.rrd_ok(now) {
            let act = self.queue.iter().position(|r| self.banks[r.bank].can_activate(now));
            if let Some(idx) = act {
                let r = self.queue[idx];
                self.banks[r.bank].activate(r.row, now, &self.cfg.timings);
                self.last_activate = Some(now);
                self.stats.activates += 1;
                return;
            }
        }
        // 3. Oldest request with a row conflict — precharge, but only if no
        //    earlier queued request still hits that bank's open row.
        let pre = self.queue.iter().position(|r| {
            let bank = &self.banks[r.bank];
            match bank.open_row() {
                Some(open) => {
                    open != r.row
                        && bank.can_precharge(now)
                        && !self.queue.iter().any(|q| q.bank == r.bank && q.row == open)
                }
                None => false,
            }
        });
        if let Some(idx) = pre {
            let b = self.queue[idx].bank;
            self.banks[b].precharge(now, &self.cfg.timings);
            self.stats.precharges += 1;
        }
    }

    fn step_fcfs(&mut self, now: u64) {
        let Some(&r) = self.queue.front() else { return };
        let QueuedRequest { bank: b, row, .. } = r;
        if self.banks[b].can_cas(row, now) {
            self.issue_cas(0, now);
        } else if self.banks[b].open_row().is_some()
            && self.banks[b].open_row() != Some(row)
            && self.banks[b].can_precharge(now)
        {
            self.banks[b].precharge(now, &self.cfg.timings);
            self.stats.precharges += 1;
        } else if self.banks[b].can_activate(now) && self.rrd_ok(now) {
            self.banks[b].activate(row, now, &self.cfg.timings);
            self.last_activate = Some(now);
            self.stats.activates += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mc: &mut MemoryController, cycles: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        for now in 0..cycles {
            mc.step(now);
            while let Some(c) = mc.pop_completed(now) {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn single_read_latency_is_act_rcd_cl_burst() {
        let mut mc = MemoryController::new(DramConfig::gddr3());
        mc.push(DramRequest::read(0, 7, 0)).unwrap();
        let done = run(&mut mc, 100);
        assert_eq!(done.len(), 1);
        // ACT at 0, CAS at tRCD=12, data at 12+tCL=21..25.
        assert_eq!(done[0].done, 25);
        assert_eq!(done[0].request.tag, 7);
    }

    #[test]
    fn row_hits_pipeline_on_the_bus() {
        let mut mc = MemoryController::new(DramConfig::gddr3());
        // Four reads to the same row.
        for i in 0..4 {
            mc.push(DramRequest::read(i * 64, i, 0)).unwrap();
        }
        let done = run(&mut mc, 200);
        assert_eq!(done.len(), 4);
        // After the first completion, subsequent ones stream every
        // burst_cycles = 4 cycles.
        for w in done.windows(2) {
            assert_eq!(w[1].done - w[0].done, 4, "row hits must stream back-to-back");
        }
        assert_eq!(mc.stats().activates, 1, "one row open serves all four");
    }

    #[test]
    fn frfcfs_prefers_row_hits_over_older_conflicts() {
        let cfg = DramConfig::gddr3();
        let mut mc = MemoryController::new(cfg);
        let row_stride = cfg.row_bytes * cfg.banks as u64; // same bank, next row
                                                           // Oldest request to row 0 (bank 0), then a conflict to row 1
                                                           // (bank 0), then another hit to row 0.
        mc.push(DramRequest::read(0, 0, 0)).unwrap();
        mc.push(DramRequest::read(row_stride, 1, 0)).unwrap();
        mc.push(DramRequest::read(64, 2, 0)).unwrap();
        let done = run(&mut mc, 300);
        let order: Vec<u64> = done.iter().map(|c| c.request.tag).collect();
        assert_eq!(order, vec![0, 2, 1], "row hit (tag 2) bypasses older conflict (tag 1)");
    }

    #[test]
    fn fcfs_serves_in_order() {
        let cfg = DramConfig::gddr3();
        let mut mc = MemoryController::with_policy(cfg, SchedulingPolicy::Fcfs);
        let row_stride = cfg.row_bytes * cfg.banks as u64;
        mc.push(DramRequest::read(0, 0, 0)).unwrap();
        mc.push(DramRequest::read(row_stride, 1, 0)).unwrap();
        mc.push(DramRequest::read(64, 2, 0)).unwrap();
        let done = run(&mut mc, 400);
        let order: Vec<u64> = done.iter().map(|c| c.request.tag).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn frfcfs_beats_fcfs_on_interleaved_rows() {
        let cfg = DramConfig::gddr3();
        let row_stride = cfg.row_bytes * cfg.banks as u64;
        let pattern: Vec<u64> = (0..16)
            .map(|i| if i % 2 == 0 { (i / 2) * 64 } else { row_stride + (i / 2) * 64 })
            .collect();
        let mut frf = MemoryController::new(cfg);
        let mut fcfs = MemoryController::with_policy(cfg, SchedulingPolicy::Fcfs);
        for (i, &a) in pattern.iter().enumerate() {
            frf.push(DramRequest::read(a, i as u64, 0)).unwrap();
            fcfs.push(DramRequest::read(a, i as u64, 0)).unwrap();
        }
        let f1 = run(&mut frf, 2000);
        let f2 = run(&mut fcfs, 2000);
        assert_eq!(f1.len(), 16);
        assert_eq!(f2.len(), 16);
        let last_frf = f1.iter().map(|c| c.done).max().unwrap();
        let last_fcfs = f2.iter().map(|c| c.done).max().unwrap();
        assert!(
            last_frf < last_fcfs,
            "FR-FCFS ({last_frf}) must finish before FCFS ({last_fcfs}) on ping-pong rows"
        );
        assert!(frf.stats().row_hit_rate() > fcfs.stats().row_hit_rate());
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut mc = MemoryController::new(DramConfig::gddr3());
        for i in 0..32 {
            mc.push(DramRequest::read(i * 64, i, 0)).unwrap();
        }
        assert!(!mc.can_accept());
        assert!(mc.push(DramRequest::read(0, 99, 0)).is_err());
        assert_eq!(mc.stats().refused, 1);
    }

    #[test]
    fn banks_activate_in_parallel_with_trrd_gap() {
        let cfg = DramConfig::gddr3();
        let mut mc = MemoryController::new(cfg);
        // Two reads to different banks.
        mc.push(DramRequest::read(0, 0, 0)).unwrap();
        mc.push(DramRequest::read(cfg.row_bytes, 1, 0)).unwrap();
        let done = run(&mut mc, 200);
        assert_eq!(done.len(), 2);
        // Second ACT issues at tRRD=8; CAS at 8+12=20, data 29..33. The
        // two transfers cannot overlap the shared bus: second done is
        // max(29, 25) + 4 = 33.
        assert_eq!(done[0].done, 25);
        assert_eq!(done[1].done, 33);
        assert_eq!(mc.stats().activates, 2);
    }

    #[test]
    fn efficiency_reflects_streaming() {
        let cfg = DramConfig::gddr3();
        let mut mc = MemoryController::new(cfg);
        // Keep the queue full of same-row reads for a while.
        let mut pushed = 0u64;
        for now in 0..2000u64 {
            while pushed < 400
                && mc.push(DramRequest::read((pushed % 32) * 64, pushed, now)).is_ok()
            {
                pushed += 1;
            }
            mc.step(now);
            while mc.pop_completed(now).is_some() {}
        }
        let eff = mc.stats().efficiency();
        assert!(eff > 0.9, "streaming same-row reads should keep the pins busy, got {eff}");
    }

    #[test]
    fn refresh_blocks_the_channel_periodically() {
        let mut cfg = DramConfig::gddr3();
        cfg.timings.t_refi = 200;
        cfg.timings.t_rfc = 50;
        let mut mc = MemoryController::new(cfg);
        // Keep a trickle of same-row reads flowing.
        let mut pushed = 0u64;
        let mut done = Vec::new();
        for now in 0..2_000u64 {
            if pushed <= now / 20 {
                let _ = mc.push(DramRequest::read((pushed % 8) * 64, pushed, now));
                pushed += 1;
            }
            mc.step(now);
            while let Some(c) = mc.pop_completed(now) {
                done.push(c);
            }
        }
        assert!(mc.stats().refreshes >= 8, "refreshes: {}", mc.stats().refreshes);
        assert!(!done.is_empty());
        // No completion may fall strictly inside a refresh window; spot
        // check gaps exist around multiples of tREFI.
        let last = done.iter().map(|c| c.done).max().unwrap();
        assert!(last < 2_000);
    }

    #[test]
    fn refresh_disabled_when_trefi_zero() {
        let mut cfg = DramConfig::gddr3();
        cfg.timings.t_refi = 0;
        let mut mc = MemoryController::new(cfg);
        for now in 0..10_000 {
            mc.step(now);
        }
        assert_eq!(mc.stats().refreshes, 0);
    }

    #[test]
    fn write_requests_complete() {
        let mut mc = MemoryController::new(DramConfig::gddr3());
        mc.push(DramRequest::write(128, 5, 0)).unwrap();
        let done = run(&mut mc, 100);
        assert_eq!(done.len(), 1);
        assert!(done[0].request.is_write);
        assert_eq!(mc.stats().writes_done, 1);
    }
}
