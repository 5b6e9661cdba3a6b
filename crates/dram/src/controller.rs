//! The memory controller: request queue, scheduling policy, command
//! issue and completion tracking.

use crate::bank::Bank;
use crate::timing::DramConfig;
use std::collections::VecDeque;

/// Scheduling policy of the controller.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SchedulingPolicy {
    /// First-ready FCFS: row hits are served first (in age order), then
    /// the oldest request opens its row. The paper's baseline.
    FrFcfs,
    /// Strict in-order service of the oldest request (ablation baseline).
    Fcfs,
}

/// A request presented to the DRAM channel.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
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

/// A queued request with its address decode (divisions by the runtime
/// `row_bytes` and `banks`) computed once at enqueue.
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
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
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
    /// Arrival order, so the lowest set bit of a position mask is the oldest.
    queue: Vec<QueuedRequest>,
    /// Per bank: bit `p` is set iff `queue[p]` addresses that bank.
    bank_mask: Vec<u64>,
    /// Bit `p` is set iff `queue[p].row` is its bank's open row.
    hit_mask: u64,
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
    /// Panics if the timings are inconsistent or the geometry is invalid.
    pub fn new(cfg: DramConfig) -> Self {
        Self::with_policy(cfg, SchedulingPolicy::FrFcfs)
    }

    /// Creates a controller with an explicit scheduling policy.
    ///
    /// # Panics
    ///
    /// Panics if the timings are inconsistent or the geometry is invalid.
    pub fn with_policy(cfg: DramConfig, policy: SchedulingPolicy) -> Self {
        cfg.timings.validate().expect("invalid DRAM timings");
        cfg.validate().expect("invalid DRAM configuration");
        MemoryController {
            policy,
            banks: vec![Bank::new(); cfg.banks],
            queue: Vec::with_capacity(cfg.queue_capacity),
            bank_mask: vec![0; cfg.banks],
            hit_mask: 0,
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
        let bit = 1u64 << self.queue.len();
        self.bank_mask[bank] |= bit;
        if self.banks[bank].row_hit(row) {
            self.hit_mask |= bit;
        }
        self.queue.push(QueuedRequest { req, bank, row });
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
        if self.begin_cycle(now) && !self.queue.is_empty() {
            match self.policy {
                SchedulingPolicy::FrFcfs => self.step_frfcfs(now),
                SchedulingPolicy::Fcfs => self.step_fcfs(now),
            }
        }
    }

    /// Accounts the cycle and runs refresh; `false` while one blocks the channel.
    fn begin_cycle(&mut self, now: u64) -> bool {
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
                for b in 0..self.banks.len() {
                    if self.banks[b].open_row().is_some() {
                        self.precharge(b, now);
                    }
                }
                self.refresh_until = now + self.cfg.timings.t_rfc;
                self.next_refresh += self.cfg.timings.t_refi;
                self.stats.refreshes += 1;
            }
        }
        now >= self.refresh_until
    }

    fn rrd_ok(&self, now: u64) -> bool {
        match self.last_activate {
            Some(t) => now >= t + self.cfg.timings.t_rrd,
            None => true,
        }
    }

    /// Opens `row` in bank `b`: its queued requests to that row become hits.
    fn activate(&mut self, b: usize, row: u64, now: u64) {
        self.banks[b].activate(row, now, &self.cfg.timings);
        self.last_activate = Some(now);
        self.stats.activates += 1;
        for (p, r) in self.queue.iter().enumerate() {
            if r.bank == b && r.row == row {
                self.hit_mask |= 1 << p;
            }
        }
    }

    /// Closes bank `b` (as a command or within a refresh): no hits remain.
    fn precharge(&mut self, b: usize, now: u64) {
        self.banks[b].precharge(now, &self.cfg.timings);
        self.stats.precharges += 1;
        self.hit_mask &= !self.bank_mask[b];
    }

    fn issue_cas(&mut self, idx: usize, now: u64) {
        let QueuedRequest { req, bank, row } = self.queue.remove(idx);
        // Younger requests moved down a position: squeeze bit `idx` out.
        let below = (1u64 << idx) - 1;
        let squeeze = |m: u64| (m & below) | ((m >> 1) & !below);
        self.hit_mask = squeeze(self.hit_mask);
        self.bank_mask.iter_mut().for_each(|m| *m = squeeze(*m));
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

    /// One pass over the banks collects, as position masks, the requests each
    /// command class could serve now; the oldest (lowest bit) of the first
    /// non-empty class issues: row hit, then activate, then conflict precharge.
    fn step_frfcfs(&mut self, now: u64) {
        let (mut cas, mut act, mut pre) = (0u64, 0u64, 0u64);
        for (bank, &queued) in self.banks.iter().zip(&self.bank_mask) {
            let hits = queued & self.hit_mask;
            match bank.open_row() {
                None if bank.can_activate(now) => act |= queued,
                Some(open) if hits != 0 && bank.can_cas(open, now) => cas |= hits,
                // A conflict precharges only once nothing queued hits the open row.
                Some(_) if hits == 0 && bank.can_precharge(now) => pre |= queued,
                _ => {}
            }
        }
        if cas != 0 {
            self.issue_cas(cas.trailing_zeros() as usize, now);
        } else if act != 0 && self.rrd_ok(now) {
            let r = self.queue[act.trailing_zeros() as usize];
            self.activate(r.bank, r.row, now);
        } else if pre != 0 {
            let b = self.queue[pre.trailing_zeros() as usize].bank;
            self.precharge(b, now);
        }
    }

    fn step_fcfs(&mut self, now: u64) {
        let Some(&QueuedRequest { bank: b, row, .. }) = self.queue.first() else { return };
        if self.banks[b].can_cas(row, now) {
            self.issue_cas(0, now);
        } else if self.banks[b].open_row().is_some()
            && self.banks[b].open_row() != Some(row)
            && self.banks[b].can_precharge(now)
        {
            self.precharge(b, now);
        } else if self.banks[b].can_activate(now) && self.rrd_ok(now) {
            self.activate(b, row, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    impl MemoryController {
        /// The reference picker: the body of `step_frfcfs` as it was before
        /// the position masks, verbatim — three scans of the queue that read
        /// bank state only, never `bank_mask` or `hit_mask`.
        fn step_three_scans(&mut self, now: u64) {
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

        /// Everything a command changes: two controllers that agree on this
        /// after a cycle issued the same command on the same queue entry.
        fn observable(&self) -> (Vec<u64>, &[Bank], &DramStats, Option<u64>, u64) {
            let tags = self.queue.iter().map(|r| r.req.tag).collect();
            (tags, &self.banks, &self.stats, self.last_activate, self.bus_free)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        /// Differential test of the position masks against the old scans: the
        /// production controller and a twin stepped by `step_three_scans` see
        /// one random stream of reads and writes — bursts that overrun the
        /// queue (back-pressure), then gaps — for over three refresh
        /// intervals, on every `banks` x `queue_capacity` shape. Every cycle
        /// both must have issued the same command on the same entry; at the
        /// end their statistics and `(tag, done)` sequences must be equal.
        ///
        /// It must catch (checked by hand on each): not clearing `hit_mask`
        /// when a refresh closes the banks, and squeezing `bank_mask` but not
        /// `hit_mask` after a CAS.
        #[test]
        fn position_masks_issue_what_the_three_scans_issued(seed in any::<u64>()) {
            for banks in [1usize, 4, 8, 16] {
                for queue_capacity in [1usize, 7, 32, 64] {
                    let cfg = DramConfig { banks, queue_capacity, ..DramConfig::gddr3() };
                    let shape = (banks * 100 + queue_capacity) as u64;
                    let mut rng = SmallRng::seed_from_u64(seed ^ shape);
                    let mut masks = MemoryController::new(cfg);
                    let mut scans = MemoryController::new(cfg);
                    let (mut done_masks, mut done_scans) = (Vec::new(), Vec::new());
                    // Few rows per bank: hits, conflicts and requests left
                    // hitting a row that a refresh closes are all common.
                    let rows = rng.gen_range(2..5u64);
                    let drive = 3 * cfg.timings.t_refi + 500;
                    let (mut tag, mut burst_left, mut gap_left) = (0u64, 0u32, 0u32);
                    let mut now = 0u64;
                    while now < drive || masks.pending() > 0 {
                        prop_assert!(now < drive + 20_000, "the queue must drain");
                        if now < drive && gap_left == 0 && burst_left == 0 {
                            burst_left = rng.gen_range(1..3 * queue_capacity as u32 + 8);
                            gap_left = rng.gen_range(0..120);
                        }
                        if now < drive && burst_left > 0 {
                            for _ in 0..rng.gen_range(1..4) {
                                let (row, bank) = (rng.gen_range(0..rows), rng.gen_range(0..banks as u64));
                                let block = row * banks as u64 + bank;
                                let addr = block * cfg.row_bytes + rng.gen_range(0..32u64) * 64;
                                let is_write = rng.gen_bool(0.3);
                                let req = DramRequest { addr, is_write, tag, arrival: now };
                                tag += 1;
                                burst_left = burst_left.saturating_sub(1);
                                prop_assert_eq!(masks.push(req), scans.push(req));
                            }
                        } else {
                            gap_left = gap_left.saturating_sub(1);
                        }
                        masks.step(now);
                        if scans.begin_cycle(now) {
                            scans.step_three_scans(now);
                        }
                        prop_assert_eq!(
                            masks.observable(), scans.observable(),
                            "cycle {} on {} banks, {} entries", now, banks, queue_capacity
                        );
                        done_masks.extend(std::iter::from_fn(|| masks.pop_completed(now)));
                        done_scans.extend(std::iter::from_fn(|| scans.pop_completed(now)));
                        now += 1;
                    }
                    prop_assert!(masks.stats().refreshes >= 3 && masks.stats().refused > 0);
                    prop_assert_eq!(masks.stats(), scans.stats());
                    prop_assert_eq!(done_masks.len() as u64, masks.stats().accepted);
                    prop_assert_eq!(done_masks, done_scans);
                }
            }
        }
    }

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
