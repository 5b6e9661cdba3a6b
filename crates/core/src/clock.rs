//! Multiple clock domains stepped in global time order.
//!
//! The accelerator has three clock domains (paper Table II): compute cores
//! at 1296 MHz, interconnect + L2 at 602 MHz and DRAM at 1107 MHz. The
//! scheduler tracks the next edge of each domain in nanoseconds and always
//! steps the earliest one, exactly like GPGPU-Sim's multi-clock main loop.

/// A clock domain identifier.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Domain {
    /// Compute cores.
    Core,
    /// Interconnect and L2 banks.
    Icnt,
    /// DRAM channels.
    Dram,
}

/// Clock frequencies in MHz.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ClockConfig {
    /// Compute-core clock (paper: 1296 MHz).
    pub core_mhz: f64,
    /// Interconnect and L2 clock (paper: 602 MHz).
    pub icnt_mhz: f64,
    /// DRAM clock (paper: 1107 MHz).
    pub dram_mhz: f64,
}

impl ClockConfig {
    /// The paper's Table II clocks.
    pub fn gtx280() -> Self {
        ClockConfig { core_mhz: 1296.0, icnt_mhz: 602.0, dram_mhz: 1107.0 }
    }
}

/// Edge scheduler over the three domains.
#[derive(Clone, Debug)]
pub struct Clocks {
    next: [f64; 3],
    period: [f64; 3],
    cycles: [u64; 3],
}

impl Clocks {
    /// Creates a scheduler; all domains tick first at time 0.
    ///
    /// # Panics
    ///
    /// Panics if any frequency is non-positive.
    pub fn new(cfg: ClockConfig) -> Self {
        assert!(cfg.core_mhz > 0.0 && cfg.icnt_mhz > 0.0 && cfg.dram_mhz > 0.0);
        let period = [1e3 / cfg.core_mhz, 1e3 / cfg.icnt_mhz, 1e3 / cfg.dram_mhz];
        Clocks { next: [0.0; 3], period, cycles: [0; 3] }
    }

    /// Returns the domain with the earliest pending edge and advances it.
    /// Ties break in `Core`, `Icnt`, `Dram` order.
    pub fn tick(&mut self) -> Domain {
        let mut idx = 0;
        for i in 1..3 {
            if self.next[i] < self.next[idx] {
                idx = i;
            }
        }
        self.next[idx] += self.period[idx];
        self.cycles[idx] += 1;
        match idx {
            0 => Domain::Core,
            1 => Domain::Icnt,
            _ => Domain::Dram,
        }
    }

    /// Completed cycles of a domain.
    pub fn cycles(&self, d: Domain) -> u64 {
        self.cycles[Self::index(d)]
    }

    fn index(d: Domain) -> usize {
        match d {
            Domain::Core => 0,
            Domain::Icnt => 1,
            Domain::Dram => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_determine_tick_ratios() {
        let mut c = Clocks::new(ClockConfig::gtx280());
        for _ in 0..300_000 {
            c.tick();
        }
        let core = c.cycles(Domain::Core) as f64;
        let icnt = c.cycles(Domain::Icnt) as f64;
        let dram = c.cycles(Domain::Dram) as f64;
        assert!((core / icnt - 1296.0 / 602.0).abs() < 0.01, "core/icnt = {}", core / icnt);
        assert!((dram / icnt - 1107.0 / 602.0).abs() < 0.01, "dram/icnt = {}", dram / icnt);
    }

    #[test]
    fn equal_clocks_alternate() {
        let mut c = Clocks::new(ClockConfig { core_mhz: 100.0, icnt_mhz: 100.0, dram_mhz: 100.0 });
        let first_three: Vec<Domain> = (0..3).map(|_| c.tick()).collect();
        assert_eq!(first_three, vec![Domain::Core, Domain::Icnt, Domain::Dram]);
    }

    #[test]
    fn cycle_counters_start_at_zero() {
        let c = Clocks::new(ClockConfig::gtx280());
        assert_eq!(c.cycles(Domain::Core), 0);
        assert_eq!(c.cycles(Domain::Icnt), 0);
        assert_eq!(c.cycles(Domain::Dram), 0);
    }
}
