//! Slicing has one rule (`NetworkConfig::physical`), so an odd channel
//! width, which cannot be halved into a request and a reply slice, has
//! one behaviour: every consumer of a double network refuses it with the
//! rule's one `Unsliceable` message, and none reads a route first.

use tenoc::core::{audit_grouped, audit_icnt, IcntConfig, Preset};
use tenoc::noc::{ArenaDoubleNetwork, DoubleNetwork, NetworkConfig, Unsliceable};
use tenoc::verify::analyze_double;
use tenoc::verify::load::TrafficMatrix;

/// The panic message of `f`, which must panic.
fn panic_message<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).err().expect("the call panics");
    payload.downcast_ref::<String>().cloned().expect("a formatted panic message")
}

#[test]
fn a_15_byte_double_network_is_refused_with_one_message() {
    let mut point = Preset::DoubleCpCr.point().expect("a physical preset");
    point.channel_bytes = 15;
    let cfg = NetworkConfig { channel_bytes: 15, ..Preset::DoubleCpCr.icnt(6).net().clone() };
    let icnt = IcntConfig::Double(cfg.clone());

    // The rule.
    let refusal = Unsliceable { channel_bytes: 15 };
    assert_eq!(cfg.physical(true), Err(refusal));
    assert_eq!(icnt.physical(), Err(refusal));
    let message = refusal.to_string();
    let violation = format!("[VIOLATION] config: {message}");

    // The prover: the refusal is its only `Config` violation.
    let report = analyze_double(&cfg);
    let found: Vec<String> = report.violations().map(|f| f.to_string()).collect();
    assert_eq!(found, std::slice::from_ref(&violation));

    // The audit: illegal with the same message, and no route table built.
    let entry = audit_icnt("odd", &icnt);
    assert!(!entry.legal && entry.matrices.is_empty(), "{entry:?}");
    assert_eq!(entry.violations, [violation]);
    let (grouped, tables) = audit_grouped(&[("odd", &icnt)], &TrafficMatrix::ALL, 1);
    assert_eq!((grouped, tables), (vec![entry], 0));

    // The tuner's builder and both engines' constructors.
    assert_eq!(point.build(6).unwrap_err(), message);
    assert_eq!(panic_message(|| DoubleNetwork::from_single(&cfg)), message);
    assert_eq!(panic_message(|| ArenaDoubleNetwork::from_single(&cfg)), message);
}
