//! GDDR3 timing parameters and DRAM geometry.

use serde::{Deserialize, Serialize};

/// GDDR3 timing constraints, in DRAM clock cycles (paper Table II).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct GddrTimings {
    /// CAS latency: column command to first data beat.
    pub t_cl: u64,
    /// Row precharge time: precharge to activate.
    pub t_rp: u64,
    /// Row cycle time: activate to activate, same bank.
    pub t_rc: u64,
    /// Row active time: activate to precharge, same bank.
    pub t_ras: u64,
    /// RAS-to-CAS delay: activate to column command.
    pub t_rcd: u64,
    /// Activate-to-activate delay, different banks.
    pub t_rrd: u64,
    /// Average interval between refresh commands (tREFI). Zero disables
    /// refresh modeling.
    pub t_refi: u64,
    /// Refresh cycle time (tRFC): all banks are blocked for this long on
    /// each refresh.
    pub t_rfc: u64,
}

impl GddrTimings {
    /// The paper's GDDR3 timings: `tCL=9, tRP=13, tRC=34, tRAS=21,
    /// tRCD=12, tRRD=8`.
    pub fn gtx280() -> Self {
        GddrTimings {
            t_cl: 9,
            t_rp: 13,
            t_rc: 34,
            t_ras: 21,
            t_rcd: 12,
            t_rrd: 8,
            // ~3.9 us tREFI / ~120 ns tRFC at 1107 MHz.
            t_refi: 4320,
            t_rfc: 133,
        }
    }

    /// Checks internal consistency (e.g. `tRC >= tRAS + tRP`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated relation.
    pub fn validate(&self) -> Result<(), String> {
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(format!(
                "tRC ({}) must cover tRAS + tRP ({} + {})",
                self.t_rc, self.t_ras, self.t_rp
            ));
        }
        if self.t_ras < self.t_rcd {
            return Err(format!("tRAS ({}) must cover tRCD ({})", self.t_ras, self.t_rcd));
        }
        if self.t_refi > 0 && self.t_rfc >= self.t_refi {
            return Err(format!(
                "tRFC ({}) must be shorter than tREFI ({})",
                self.t_rfc, self.t_refi
            ));
        }
        Ok(())
    }
}

/// Full configuration of one DRAM channel (one memory controller).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct DramConfig {
    /// Timing constraints.
    pub timings: GddrTimings,
    /// Number of banks per channel.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Transfer granularity in bytes (one memory access: an L2 line).
    pub burst_bytes: u64,
    /// Peak data-pin bandwidth in bytes per DRAM clock (16 for the
    /// paper's configuration).
    pub bytes_per_cycle: u64,
    /// Request queue capacity (paper: 32).
    pub queue_capacity: usize,
}

impl DramConfig {
    /// The paper's GDDR3 channel: 8 banks, 2 KiB rows, 64 B bursts at
    /// 16 B/cycle, 32-entry queue.
    pub fn gddr3() -> Self {
        DramConfig {
            timings: GddrTimings::gtx280(),
            banks: 8,
            row_bytes: 2048,
            burst_bytes: 64,
            bytes_per_cycle: 16,
            queue_capacity: 32,
        }
    }

    /// Checks the geometry: the scheduler keeps a bit per queue position in a `u64`.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(1..=64).contains(&self.queue_capacity) {
            return Err(format!("queue_capacity ({}) must be in 1..=64", self.queue_capacity));
        }
        if self.banks == 0 {
            return Err("banks (0) must be at least 1".to_string());
        }
        Ok(())
    }

    /// Cycles the data bus is occupied by one burst.
    pub fn burst_cycles(&self) -> u64 {
        self.burst_bytes.div_ceil(self.bytes_per_cycle)
    }

    /// Bank index for a byte address (bank bits above the row offset,
    /// interleaving consecutive rows across banks).
    pub(crate) fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.row_bytes) % self.banks as u64) as usize
    }

    /// Row index within a bank for a byte address.
    pub(crate) fn row_of(&self, addr: u64) -> u64 {
        addr / self.row_bytes / self.banks as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_timings_are_consistent() {
        GddrTimings::gtx280().validate().unwrap();
    }

    #[test]
    fn inconsistent_timings_rejected() {
        let mut t = GddrTimings::gtx280();
        t.t_rc = 10;
        assert!(t.validate().is_err());
        let mut t = GddrTimings::gtx280();
        t.t_ras = 5;
        assert!(t.validate().is_err());
    }

    #[test]
    fn geometry_outside_the_position_masks_rejected() {
        let base = DramConfig::gddr3();
        base.validate().unwrap();
        DramConfig { queue_capacity: 64, ..base }.validate().unwrap();
        for (cfg, field) in [
            (DramConfig { queue_capacity: 0, ..base }, "queue_capacity"),
            (DramConfig { queue_capacity: 65, ..base }, "queue_capacity (65) must be in 1..=64"),
            (DramConfig { banks: 0, ..base }, "banks"),
        ] {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(field), "{err}");
        }
    }

    #[test]
    fn burst_occupies_four_cycles() {
        assert_eq!(DramConfig::gddr3().burst_cycles(), 4);
    }

    #[test]
    fn bank_row_mapping_interleaves_rows() {
        let c = DramConfig::gddr3();
        // Consecutive rows land in consecutive banks.
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(2048), 1);
        assert_eq!(c.bank_of(2048 * 8), 0);
        assert_eq!(c.row_of(0), 0);
        assert_eq!(c.row_of(2048 * 8), 1);
        // Addresses within one row share bank and row.
        assert_eq!(c.bank_of(100), c.bank_of(2000));
        assert_eq!(c.row_of(100), c.row_of(2000));
    }
}
