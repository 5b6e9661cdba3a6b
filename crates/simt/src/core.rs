//! The shader core: warp scheduler, SIMD issue, coalescing, L1 and MSHRs.

use crate::kernel::KernelSpec;
use crate::warp::{PendingInst, Warp, WarpState};
use rand::Rng;
use std::collections::VecDeque;
use tenoc_cache::{Access, Cache, CacheConfig, LookupResult, MshrOutcome, MshrTable};

/// High-order address-space tags keeping streaming and working-set regions
/// disjoint across cores and warps.
const STREAM_REGION: u64 = 1 << 44;
const LOCAL_REGION: u64 = 2 << 44;

/// A memory request leaving the core toward the L2/MC.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemRequest {
    /// Line-aligned address.
    pub line_addr: u64,
    /// `true` for write-through/write-back traffic (no reply expected);
    /// `false` for line fetches (a fill must be pushed back).
    pub is_write: bool,
    /// Size of the *network request packet* in bytes: 8 for reads (the
    /// reply carries the 64-byte line), 64 for writes.
    pub size_bytes: u32,
}

/// Warp scheduling policy.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SchedulerPolicy {
    /// Round-robin among ready warps (the paper's Table II policy).
    RoundRobin,
    /// Greedy-then-oldest: keep issuing from the same warp until it
    /// stalls, then switch to the oldest ready warp. Improves intra-warp
    /// locality at some latency-hiding cost.
    GreedyThenOldest,
}

/// Core microarchitecture parameters (paper Table II).
#[derive(Clone, Debug, PartialEq)]
pub struct CoreConfig {
    /// Scalar threads per warp.
    pub warp_size: u32,
    /// Cycles a warp instruction occupies the 8-wide issue pipeline
    /// (32 threads / 8 lanes = 4).
    pub issue_interval: u64,
    /// MSHR entries.
    pub mshrs: usize,
    /// Maximum merged targets per MSHR entry.
    pub mshr_targets: usize,
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// Outgoing request queue capacity (back-pressure from the NoC).
    pub out_queue_cap: usize,
    /// Warp scheduling policy.
    pub scheduler: SchedulerPolicy,
}

impl CoreConfig {
    /// Parameters matching the paper's compute node: 32-thread warps over
    /// an 8-wide pipeline, 64 MSHRs, 16 KB L1.
    pub fn gtx280_like() -> Self {
        CoreConfig {
            warp_size: 32,
            issue_interval: 4,
            mshrs: 64,
            mshr_targets: 32,
            l1: CacheConfig::l1_16k(),
            out_queue_cap: 16,
            scheduler: SchedulerPolicy::RoundRobin,
        }
    }
}

/// Execution statistics of one core.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Warp instructions retired.
    pub warp_insts: u64,
    /// Memory instructions replayed for lack of MSHRs or queue space.
    pub replays: u64,
    /// Read line-fetches sent to the memory system.
    pub read_requests: u64,
    /// Write requests sent to the memory system.
    pub write_requests: u64,
}

/// One SIMT compute node (see the crate-level example).
pub struct ShaderCore {
    id: usize,
    cfg: CoreConfig,
    spec: KernelSpec,
    warps: Vec<Warp>,
    rr: usize,
    issue_free_at: u64,
    /// No warp can become issue-eligible before this cycle (the earliest
    /// `WaitingDep` expiry found by a failed scheduler scan; `u64::MAX`
    /// when only a fill can wake the core). Lets idle cycles skip the
    /// warp scan; cleared by [`ShaderCore::push_fill`], the only other
    /// event that changes readiness.
    idle_until: u64,
    l1: Cache,
    mshrs: MshrTable,
    /// Bumped where L1 residency or MSHR membership can change: on a fill
    /// and on a memory instruction that issues. Starts at 1.
    mem_epoch: u64,
    /// Scratch for MSHR completions (reused across fills).
    fill_targets: Vec<u64>,
    out: VecDeque<MemRequest>,
    stats: CoreStats,
    done: bool,
}

impl ShaderCore {
    /// Builds a core running `spec`, with per-warp RNGs derived from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec or cache configuration is invalid.
    pub fn new(id: usize, cfg: CoreConfig, spec: &KernelSpec, seed: u64) -> Self {
        spec.validate().expect("invalid kernel spec");
        let warps =
            (0..spec.warps_per_core).map(|w| Warp::new(id, w, spec.insts_per_warp, seed)).collect();
        ShaderCore {
            id,
            l1: Cache::new(cfg.l1),
            mshrs: MshrTable::new(cfg.mshrs, cfg.mshr_targets),
            mem_epoch: 1,
            fill_targets: Vec::new(),
            warps,
            rr: 0,
            issue_free_at: 0,
            idle_until: 0,
            out: VecDeque::new(),
            stats: CoreStats::default(),
            done: spec.total_warp_insts() == 0,
            cfg,
            spec: spec.clone(),
        }
    }

    /// Core index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// `true` once every warp has retired all its instructions. Fills for
    /// in-flight reads may still arrive afterwards.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Warp instructions retired so far.
    pub fn retired_warp_insts(&self) -> u64 {
        self.stats.warp_insts
    }

    /// Scalar instructions retired: warp instructions x warp size x the
    /// kernel's mean active-lane fraction (branch divergence means a warp
    /// slot does not always carry 32 useful lanes).
    pub fn retired_scalar_insts(&self) -> u64 {
        let lanes = self.cfg.warp_size as f64 * self.spec.active_lane_fraction;
        (self.stats.warp_insts as f64 * lanes).round() as u64
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Outstanding read line-fetches (MSHR entries in use).
    pub fn outstanding_fetches(&self) -> usize {
        self.mshrs.len()
    }

    /// Removes the next outgoing memory request, if any.
    pub fn pop_request(&mut self) -> Option<MemRequest> {
        self.out.pop_front()
    }

    /// Outgoing requests waiting to enter the network.
    pub fn pending_requests(&self) -> usize {
        self.out.len()
    }

    /// Delivers a read fill for `line_addr`: releases the MSHR entry,
    /// wakes the merged warps and installs the line in the L1 (possibly
    /// generating a dirty write-back request).
    ///
    /// # Panics
    ///
    /// Panics if no fetch for `line_addr` is outstanding.
    pub fn push_fill(&mut self, line_addr: u64) {
        self.idle_until = 0;
        self.mem_epoch += 1;
        let mut targets = std::mem::take(&mut self.fill_targets);
        self.mshrs.complete_into(line_addr, &mut targets);
        if let Some(ev) = self.l1.fill(line_addr) {
            if ev.dirty {
                self.out.push_back(MemRequest {
                    line_addr: ev.line_addr,
                    is_write: true,
                    size_bytes: 64,
                });
                self.stats.write_requests += 1;
            }
        }
        let limit = self.dep_limit();
        for &t in &targets {
            self.warps[t as usize].complete_load(limit);
        }
        self.fill_targets = targets;
    }

    /// Advances the core by one core-clock cycle.
    pub fn step(&mut self, now: u64) {
        if self.done {
            return;
        }
        if now < self.issue_free_at {
            return;
        }
        // A previous failed scan proved no warp wakes before `idle_until`
        // (fills reset it): this cycle is idle without re-scanning.
        if now < self.idle_until {
            return;
        }
        let n = self.warps.len();
        let picked = match self.cfg.scheduler {
            SchedulerPolicy::RoundRobin => {
                (self.rr..n).chain(0..self.rr).find(|&w| self.warps[w].ready(now))
            }
            // Greedy: stick with the last-issued warp while it stays
            // ready; otherwise fall back to the lowest-id (oldest) ready
            // warp.
            SchedulerPolicy::GreedyThenOldest => {
                let last = (self.rr + n - 1) % n;
                if self.warps[last].ready(now) {
                    Some(last)
                } else {
                    (0..n).find(|&w| self.warps[w].ready(now))
                }
            }
        };
        let Some(wid) = picked else {
            // Readiness only changes with time (WaitingDep expiry) or a
            // fill (which clears this): sleep until the earliest
            // dependency expires.
            self.idle_until = self
                .warps
                .iter()
                .filter_map(|w| match w.state {
                    WarpState::WaitingDep(until) => Some(until),
                    _ => None,
                })
                .min()
                .unwrap_or(u64::MAX);
            return;
        };
        self.rr = (wid + 1) % n;
        self.issue_free_at = now + self.cfg.issue_interval;
        self.issue_instruction(wid, now);
        // The kernel can only finish on the cycle its last warp retires.
        if self.warps[wid].state == WarpState::Done {
            self.done = self.warps.iter().all(|w| w.state == WarpState::Done);
        }
    }

    fn issue_instruction(&mut self, wid: usize, now: u64) {
        let mut inst = match self.warps[wid].pending_inst.take() {
            Some(i) => i,
            None => self.generate_inst(wid),
        };
        if !inst.is_mem {
            let lat = self.spec.alu_latency;
            let w = &mut self.warps[wid];
            w.retire_one();
            if w.state != WarpState::Done {
                w.state = WarpState::WaitingDep(now + lat);
            }
            self.stats.warp_insts += 1;
            return;
        }
        // Atomic resource check: the instruction replays if the MSHRs or
        // the outgoing queue cannot absorb every transaction. The drawn
        // instruction is kept so the stream is timing-independent.
        if inst.demand.0 == self.mem_epoch {
            debug_assert_eq!(inst.demand, self.demand(&inst), "stale demand memo");
        } else {
            inst.demand = self.demand(&inst);
        }
        let (_, new_fetches, out_needed) = inst.demand;
        if self.mshrs.len() + new_fetches > self.cfg.mshrs
            || self.out.len() + out_needed > self.cfg.out_queue_cap
        {
            self.stats.replays += 1;
            self.warps[wid].pending_inst = Some(inst);
            return; // warp stays ready; the same instruction retries later
        }
        self.mem_epoch += 1;
        let mut loads_outstanding = 0u32;
        for &line in &inst.lines {
            if inst.is_write {
                match self.l1.access(line, Access::Write) {
                    LookupResult::Hit => {} // dirty in L1; written back on eviction
                    LookupResult::Miss => {
                        self.out.push_back(MemRequest {
                            line_addr: line,
                            is_write: true,
                            size_bytes: 64,
                        });
                        self.stats.write_requests += 1;
                    }
                }
            } else {
                match self.l1.access(line, Access::Read) {
                    LookupResult::Hit => {}
                    LookupResult::Miss => match self.mshrs.allocate(line, wid as u64) {
                        MshrOutcome::Allocated => {
                            self.out.push_back(MemRequest {
                                line_addr: line,
                                is_write: false,
                                size_bytes: 8,
                            });
                            self.stats.read_requests += 1;
                            loads_outstanding += 1;
                        }
                        MshrOutcome::Merged => loads_outstanding += 1,
                        MshrOutcome::Full => unreachable!("capacity checked above"),
                    },
                }
            }
        }
        let limit = self.dep_limit();
        let w = &mut self.warps[wid];
        w.retire_one();
        w.add_outstanding(loads_outstanding, limit);
        if loads_outstanding == 0 && w.state != WarpState::Done {
            // Hits and stores still incur a short dependency bubble.
            w.state = WarpState::WaitingDep(now + self.spec.alu_latency);
        }
        self.stats.warp_insts += 1;
    }

    /// MSHR entries and outgoing-queue slots `inst` would take if it issued
    /// now, stamped with the epoch: `(mem_epoch, new_fetches, out_needed)`.
    fn demand(&self, inst: &PendingInst) -> (u64, usize, usize) {
        let mut new_fetches = 0usize;
        let mut out_needed = 0usize;
        for &line in &inst.lines {
            if self.l1.contains(line) {
                continue;
            }
            if inst.is_write {
                out_needed += 1; // write-through, no allocation
            } else if !self.mshrs.contains(line) {
                new_fetches += 1;
                out_needed += 1;
            }
        }
        (self.mem_epoch, new_fetches, out_needed)
    }

    /// Draws the next instruction of a warp from its RNG (exactly once per
    /// instruction).
    fn generate_inst(&mut self, wid: usize) -> PendingInst {
        let is_mem = self.warps[wid].rng.gen_bool(self.spec.mem_fraction);
        if !is_mem {
            return PendingInst {
                is_mem: false,
                is_write: false,
                lines: Vec::new(),
                demand: (0, 0, 0),
            };
        }
        let is_write = self.warps[wid].rng.gen_bool(self.spec.write_fraction);
        let lines = self.generate_lines(wid);
        PendingInst { is_mem: true, is_write, lines, demand: (0, 0, 0) }
    }

    /// In-flight load-transaction allowance per warp before it blocks.
    fn dep_limit(&self) -> u32 {
        (self.spec.mem_dep_distance * self.spec.lines_per_mem).max(1)
    }

    /// Generates the distinct line addresses one memory instruction
    /// touches after coalescing.
    fn generate_lines(&mut self, wid: usize) -> Vec<u64> {
        let n = self.spec.lines_per_mem as u64;
        let line = self.cfg.l1.line_bytes;
        let streaming = self.warps[wid].rng.gen_bool(self.spec.stream_fraction);
        let core_bits = (self.id as u64) << 34;
        let w = &mut self.warps[wid];
        if streaming {
            let warp_bits = (w.id as u64) << 28;
            let base = STREAM_REGION | core_bits | warp_bits;
            let start = base + w.stream_cursor * n * line;
            w.stream_cursor += 1;
            (0..n).map(|i| start + i * line).collect()
        } else {
            let ws_lines = (self.spec.working_set / line).max(1);
            let base = LOCAL_REGION | core_bits;
            let mut out = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let l = base + w.rng.gen_range(0..ws_lines) * line;
                if !out.contains(&l) {
                    out.push(l);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelSpec;

    fn run_with_ideal_memory(spec: &KernelSpec, max_cycles: u64) -> (ShaderCore, u64) {
        let mut core = ShaderCore::new(0, CoreConfig::gtx280_like(), spec, 1);
        let mut cycle = 0;
        while !core.done() && cycle < max_cycles {
            core.step(cycle);
            while let Some(req) = core.pop_request() {
                if !req.is_write {
                    core.push_fill(req.line_addr);
                }
            }
            cycle += 1;
        }
        (core, cycle)
    }

    #[test]
    fn pure_alu_kernel_saturates_issue() {
        let spec = KernelSpec::builder("alu")
            .warps_per_core(32)
            .insts_per_warp(100)
            .mem_fraction(0.0)
            .build();
        let (core, cycles) = run_with_ideal_memory(&spec, 1_000_000);
        assert!(core.done());
        assert_eq!(core.retired_warp_insts(), 3200);
        // One warp instruction every 4 cycles: 12800 cycles minimum.
        let ideal = 3200 * 4;
        assert!(
            (cycles as f64) < ideal as f64 * 1.05,
            "32 warps must hide ALU latency: {cycles} vs ideal {ideal}"
        );
        // Peak scalar IPC is 8.
        let ipc = core.retired_scalar_insts() as f64 / cycles as f64;
        assert!(ipc > 7.5, "ipc {ipc}");
    }

    #[test]
    fn single_warp_exposes_dependency_latency() {
        let mut spec = KernelSpec::builder("dep")
            .warps_per_core(1)
            .insts_per_warp(100)
            .mem_fraction(0.0)
            .build();
        spec.alu_latency = 20;
        let (core, cycles) = run_with_ideal_memory(&spec, 1_000_000);
        assert!(core.done());
        assert!(cycles >= 99 * 20, "dependency chain must be exposed: {cycles}");
    }

    #[test]
    fn streaming_kernel_generates_read_traffic() {
        let spec = KernelSpec::builder("stream")
            .warps_per_core(8)
            .insts_per_warp(50)
            .mem_fraction(1.0)
            .write_fraction(0.0)
            .stream_fraction(1.0)
            .lines_per_mem(2)
            .build();
        let (core, _) = run_with_ideal_memory(&spec, 1_000_000);
        assert!(core.done());
        // Every memory instruction touches 2 fresh lines: all miss.
        assert_eq!(core.stats().read_requests, 8 * 50 * 2);
        assert_eq!(core.stats().write_requests, 0);
    }

    #[test]
    fn small_working_set_mostly_hits_l1() {
        let spec = KernelSpec::builder("local")
            .warps_per_core(8)
            .insts_per_warp(200)
            .mem_fraction(1.0)
            .write_fraction(0.0)
            .stream_fraction(0.0)
            .working_set(4 * 1024) // fits easily in 16 KB L1
            .build();
        let (core, _) = run_with_ideal_memory(&spec, 1_000_000);
        assert!(core.done());
        let hit = core.l1.stats().hit_rate();
        assert!(hit > 0.9, "4 KB working set must hit in a 16 KB L1, rate {hit}");
        // At most the 64 distinct lines of the working set are fetched.
        assert!(core.stats().read_requests <= 64);
    }

    #[test]
    fn writes_emit_write_requests_without_replies() {
        let spec = KernelSpec::builder("store")
            .warps_per_core(4)
            .insts_per_warp(50)
            .mem_fraction(1.0)
            .write_fraction(1.0)
            .stream_fraction(1.0)
            .build();
        let mut core = ShaderCore::new(0, CoreConfig::gtx280_like(), &spec, 1);
        let mut writes = 0;
        let mut cycle = 0;
        while !core.done() && cycle < 1_000_000 {
            core.step(cycle);
            while let Some(req) = core.pop_request() {
                assert!(req.is_write);
                assert_eq!(req.size_bytes, 64);
                writes += 1;
            }
            cycle += 1;
        }
        assert!(core.done(), "stores never block the warp");
        assert_eq!(writes, 4 * 50);
        assert_eq!(core.outstanding_fetches(), 0);
    }

    #[test]
    fn back_pressure_replays_instead_of_overflowing() {
        let spec = KernelSpec::builder("pressure")
            .warps_per_core(32)
            .insts_per_warp(20)
            .mem_fraction(1.0)
            .stream_fraction(1.0)
            .lines_per_mem(4)
            .build();
        // Never drain the outgoing queue: the core must stall, not panic.
        let mut core = ShaderCore::new(0, CoreConfig::gtx280_like(), &spec, 1);
        for cycle in 0..10_000 {
            core.step(cycle);
        }
        assert!(core.pending_requests() <= 16);
        assert!(core.stats().replays > 0);
        assert!(!core.done());
    }

    #[test]
    fn fill_between_replays_refreshes_the_memoized_demand() {
        let spec = KernelSpec::builder("memo")
            .warps_per_core(2)
            .insts_per_warp(1)
            .mem_fraction(1.0)
            .build();
        let mut cfg = CoreConfig::gtx280_like();
        cfg.out_queue_cap = 1;
        let mut core = ShaderCore::new(0, cfg, &spec, 1);
        let (x, z) = (0x1000, 0x2000);
        let plant = |is_write, lines: &[u64]| {
            Some(PendingInst { is_mem: true, is_write, lines: lines.to_vec(), demand: (0, 0, 0) })
        };
        core.warps[0].pending_inst = plant(false, &[x]);
        core.warps[1].pending_inst = plant(true, &[x, z]);
        core.step(0); // warp 0's load misses; the memory system takes the fetch of X
        assert_eq!(core.pop_request().map(|r| r.line_addr), Some(x));
        // Warp 1's store needs two slots of a one-slot queue that stays
        // empty: it replays, the second time from the memo.
        core.step(4);
        let memo = core.warps[1].pending_inst.as_ref().unwrap().demand;
        assert_eq!(memo, (core.mem_epoch, 0, 2));
        core.step(8);
        assert_eq!(core.stats().replays, 2);
        assert_eq!(core.warps[1].pending_inst.as_ref().unwrap().demand, memo);
        // X becomes L1-resident: only the demand changed, and the store fits.
        core.push_fill(x);
        core.step(12);
        assert_eq!(core.stats().replays, 2);
        assert!(core.done());
        let sent = core.pop_request().unwrap();
        assert_eq!((sent.line_addr, sent.is_write), (z, true));
        assert_eq!(core.pop_request(), None);
    }

    #[test]
    fn divergence_scales_scalar_count_not_timing() {
        let full = KernelSpec::builder("full")
            .warps_per_core(4)
            .insts_per_warp(50)
            .mem_fraction(0.0)
            .build();
        let div = KernelSpec::builder("div")
            .warps_per_core(4)
            .insts_per_warp(50)
            .mem_fraction(0.0)
            .active_lane_fraction(0.5)
            .build();
        let run = |spec: &KernelSpec| {
            let mut core = ShaderCore::new(0, CoreConfig::gtx280_like(), spec, 1);
            let mut cycle = 0;
            while !core.done() && cycle < 100_000 {
                core.step(cycle);
                cycle += 1;
            }
            (cycle, core.retired_scalar_insts())
        };
        let (t_full, s_full) = run(&full);
        let (t_div, s_div) = run(&div);
        assert_eq!(t_full, t_div, "divergence must not change warp timing");
        assert_eq!(s_full, 4 * 50 * 32);
        assert_eq!(s_div, 4 * 50 * 16, "half the lanes retire half the scalars");
    }

    #[test]
    fn gto_scheduler_completes_and_prefers_one_warp() {
        let mut spec = KernelSpec::builder("gto")
            .warps_per_core(8)
            .insts_per_warp(100)
            .mem_fraction(0.0)
            .build();
        spec.alu_latency = 0;
        let mut cfg = CoreConfig::gtx280_like();
        cfg.scheduler = SchedulerPolicy::GreedyThenOldest;
        let mut core = ShaderCore::new(0, cfg, &spec, 1);
        let mut cycle = 0;
        while !core.done() && cycle < 100_000 {
            core.step(cycle);
            cycle += 1;
        }
        assert!(core.done());
        assert_eq!(core.retired_warp_insts(), 800);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let spec = KernelSpec::builder("det")
            .warps_per_core(8)
            .insts_per_warp(100)
            .mem_fraction(0.4)
            .stream_fraction(0.5)
            .build();
        let (a, ca) = run_with_ideal_memory(&spec, 1_000_000);
        let (b, cb) = run_with_ideal_memory(&spec, 1_000_000);
        assert_eq!(ca, cb);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn memory_latency_blocks_low_occupancy_kernels() {
        // With one warp and slow memory, the core crawls. This mirrors NNC
        // in the paper (too few threads to hide latency).
        let spec = KernelSpec::builder("nnc")
            .warps_per_core(1)
            .insts_per_warp(50)
            .mem_fraction(1.0)
            .write_fraction(0.0)
            .stream_fraction(1.0)
            .mem_dep_distance(1)
            .build();
        let mut core = ShaderCore::new(0, CoreConfig::gtx280_like(), &spec, 1);
        let mut pending: Vec<(u64, u64)> = Vec::new(); // (deliver_at, line)
        let latency = 200;
        let mut cycle = 0;
        while !core.done() && cycle < 1_000_000 {
            core.step(cycle);
            while let Some(req) = core.pop_request() {
                if !req.is_write {
                    pending.push((cycle + latency, req.line_addr));
                }
            }
            let (due, rest): (Vec<_>, Vec<_>) = pending.iter().partition(|&&(t, _)| t <= cycle);
            pending = rest;
            for (_, line) in due {
                core.push_fill(line);
            }
            cycle += 1;
        }
        assert!(core.done());
        // The final load retires at issue, so 49 full round-trips remain.
        assert!(cycle > 48 * latency, "each load serializes at ~200 cycles: {cycle}");
    }
}
