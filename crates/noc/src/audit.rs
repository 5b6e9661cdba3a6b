//! Debug-build configuration auditing hook.
//!
//! `tenoc-noc` deliberately has no dependency on the static verifier
//! (`tenoc-verify` depends on this crate), so the network cannot call the
//! verifier directly. Instead, [`Network::new`](crate::network::Network::new)
//! invokes a process-global auditor callback — if one has been installed —
//! on every configuration it is asked to build, and panics if the auditor
//! rejects it. `tenoc_verify::install_debug_auditor` installs the
//! channel-dependency-graph analyzer here, so any debug-build simulation
//! run (tests included) statically proves its own configuration
//! deadlock-free before the first cycle. Release builds skip the check.

use crate::config::NetworkConfig;
use std::sync::OnceLock;

/// A configuration auditor: returns `Err` with a human-readable report if
/// the configuration is unsafe to simulate.
pub(crate) type ConfigAuditor = fn(&NetworkConfig) -> Result<(), String>;

static AUDITOR: OnceLock<ConfigAuditor> = OnceLock::new();

/// Installs the process-global auditor. The first installation wins;
/// returns `false` (harmlessly) if an auditor was already installed.
pub fn install_auditor(auditor: ConfigAuditor) -> bool {
    AUDITOR.set(auditor).is_ok()
}

/// Runs the installed auditor against `cfg` (debug builds only).
///
/// # Panics
///
/// Panics with the auditor's report if the configuration is rejected.
pub(crate) fn audit(cfg: &NetworkConfig) {
    #[cfg(debug_assertions)]
    if let Some(auditor) = AUDITOR.get() {
        if let Err(report) = auditor(cfg) {
            panic!("network configuration failed static verification:\n{report}");
        }
    }
    #[cfg(not(debug_assertions))]
    let _ = cfg;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;

    #[test]
    fn audit_without_auditor_is_a_no_op() {
        // Must not panic (no auditor installed in this crate's own tests).
        audit(&NetworkConfig::baseline_mesh(4));
    }
}
