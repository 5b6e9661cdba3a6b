//! A single DRAM bank's row state and command timing.

use crate::timing::GddrTimings;

/// State of one DRAM bank.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle an ACTIVATE may issue (covers tRC and tRP).
    next_activate: u64,
    /// Earliest cycle a PRECHARGE may issue (covers tRAS).
    next_precharge: u64,
    /// Earliest cycle a column command may issue (covers tRCD).
    next_cas: u64,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// A bank with all rows closed and no timing obligations.
    pub fn new() -> Self {
        Bank { open_row: None, next_activate: 0, next_precharge: 0, next_cas: 0 }
    }

    /// Currently open row, if any.
    pub(crate) fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// `true` if `row` is open.
    pub(crate) fn row_hit(&self, row: u64) -> bool {
        self.open_row == Some(row)
    }

    /// `true` if an ACTIVATE may issue at `now` (bank-local constraints;
    /// the controller also enforces the inter-bank tRRD).
    pub(crate) fn can_activate(&self, now: u64) -> bool {
        self.open_row.is_none() && now >= self.next_activate
    }

    /// `true` if a PRECHARGE may issue at `now`.
    pub(crate) fn can_precharge(&self, now: u64) -> bool {
        self.open_row.is_some() && now >= self.next_precharge
    }

    /// `true` if a column command to `row` may issue at `now`.
    pub(crate) fn can_cas(&self, row: u64, now: u64) -> bool {
        self.row_hit(row) && now >= self.next_cas
    }

    /// Issues an ACTIVATE for `row`.
    ///
    /// # Panics
    ///
    /// Panics if the activate violates bank timing (simulator bug).
    pub(crate) fn activate(&mut self, row: u64, now: u64, t: &GddrTimings) {
        assert!(self.can_activate(now), "ACT issued while bank busy or row open");
        self.open_row = Some(row);
        self.next_cas = now + t.t_rcd;
        self.next_precharge = now + t.t_ras;
        self.next_activate = now + t.t_rc;
    }

    /// Issues a PRECHARGE.
    ///
    /// # Panics
    ///
    /// Panics if the precharge violates tRAS.
    pub(crate) fn precharge(&mut self, now: u64, t: &GddrTimings) {
        assert!(self.can_precharge(now), "PRE issued before tRAS or with no open row");
        self.open_row = None;
        self.next_activate = self.next_activate.max(now + t.t_rp);
    }

    /// Issues a column command (read or write) to the open row.
    ///
    /// # Panics
    ///
    /// Panics if the row is not open or tRCD has not elapsed.
    pub(crate) fn cas(&mut self, row: u64, now: u64) {
        assert!(self.can_cas(row, now), "CAS issued to closed row or before tRCD");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> GddrTimings {
        GddrTimings::gtx280()
    }

    #[test]
    fn activate_opens_row_after_rcd() {
        let mut b = Bank::new();
        b.activate(5, 0, &t());
        assert!(b.row_hit(5));
        assert!(!b.can_cas(5, 11), "tRCD=12 not yet elapsed");
        assert!(b.can_cas(5, 12));
        assert!(!b.can_cas(6, 100), "other rows are not open");
    }

    #[test]
    fn precharge_respects_tras_and_trp() {
        let mut b = Bank::new();
        b.activate(1, 0, &t());
        assert!(!b.can_precharge(20), "tRAS=21");
        assert!(b.can_precharge(21));
        b.precharge(21, &t());
        assert_eq!(b.open_row(), None);
        // tRC=34 from the activate dominates 21+tRP=34: equal here.
        assert!(!b.can_activate(33));
        assert!(b.can_activate(34));
    }

    #[test]
    fn trc_enforced_between_activates() {
        let mut b = Bank::new();
        b.activate(1, 0, &t());
        b.precharge(21, &t());
        b.activate(2, 34, &t());
        assert!(b.row_hit(2));
    }

    #[test]
    #[should_panic(expected = "ACT issued")]
    fn double_activate_panics() {
        let mut b = Bank::new();
        b.activate(1, 0, &t());
        b.activate(2, 1, &t());
    }

    #[test]
    #[should_panic(expected = "PRE issued")]
    fn early_precharge_panics() {
        let mut b = Bank::new();
        b.activate(1, 0, &t());
        b.precharge(5, &t());
    }

    #[test]
    #[should_panic(expected = "CAS issued")]
    fn cas_to_closed_row_panics() {
        let mut b = Bank::new();
        b.cas(3, 50);
    }
}
