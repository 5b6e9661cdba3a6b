//! Every named preset's resolved interconnect configuration, pinned by
//! canonical content hash at radix 4, 6 and 8.
//!
//! `tests/golden/audit.json` pins each preset's subject line at k = 6
//! only. A preset's configuration is the content address of every cell
//! and probe it runs, so a change that moves one at any radix must be
//! deliberate: this table makes it fail by preset name and radix. The
//! hashes are `tenoc::tune::config_hash`, the address the result store
//! and the tuner key by. Update a row only together with the change that
//! means to move it.

use tenoc::core::Preset;
use tenoc::tune::config_hash;

/// `(label, [hash at k = 4, k = 6, k = 8])`, in `Preset::NAMED` order.
const PINNED: [(&str, [&str; 3]); 15] = [
    ("TB-DOR", ["41ad5ad8bb1ee009", "54dff3f08891c6ab", "03123f7e13f201b7"]),
    ("2x-TB-DOR", ["73900f0e153f7ec3", "f2377fc985488c79", "d7d16e327fd33ca1"]),
    ("TB-DOR-1cyc", ["e3105cc0e16bad0c", "1a3e4d6c74f173de", "b421eb38b10d73e2"]),
    ("CP-DOR-2VC", ["7d4c2dabe8ffcc1a", "149bcf4b1003d786", "972108003ea01cd2"]),
    ("CP-DOR-4VC", ["a28acdbda8592d34", "d7e26f1b078ec528", "0f7ea80d1317a9ec"]),
    ("CP-CR-4VC", ["29318afe3b8650be", "0900655a5315337e", "afba6819fe434396"]),
    ("Double-CP-CR", ["3f78f01a1eaff66e", "374d6797ec4e9e2e", "fe761aef8ce2a7c6"]),
    ("Double-CP-CR-2P(inj)", ["232650515ed689af", "72cfc238a0b59555", "4a18a7e195b44205"]),
    ("Double-CP-CR-2P(ej)", ["b75fb703fbe5ad33", "a8c7dac7bfb499a9", "8d6ed4bcb3a363a1"]),
    ("Double-CP-CR-2P(both)", ["fbefba4c4a76a342", "abd3f09fee21aab2", "c9bd12d56465a1a2"]),
    ("Thr-Eff", ["232650515ed689af", "72cfc238a0b59555", "4a18a7e195b44205"]),
    ("CP-CR-2P(single)", ["20a07357872ecd7f", "d41a17e0cafd3d65", "ccf985c96d128a95"]),
    ("Torus-DOR", ["e189c29129b68f8c", "53cbf2a9ccc3e882", "cc132d0518c098f6"]),
    ("CMesh-DOR", ["5112e2dfa6a3ef01", "6bbd8342451be15b", "3b50c344836a15fb"]),
    ("Perfect", ["0c5e79e0f48f0211", "c4bbfdd409d9e393", "cda43fa83d63128f"]),
];

#[test]
fn every_named_preset_config_is_pinned_at_k4_k6_k8() {
    let labels: Vec<String> = Preset::NAMED.iter().map(Preset::label).collect();
    assert_eq!(labels, PINNED.map(|(label, _)| label), "one row per named preset, in order");
    let mut drift = Vec::new();
    for (preset, (label, hashes)) in Preset::NAMED.iter().zip(PINNED) {
        for (k, pinned) in [4, 6, 8].into_iter().zip(hashes) {
            let got = config_hash(&preset.icnt(k));
            if got != pinned {
                drift.push(format!("{label} at k = {k}: {got}, pinned {pinned}"));
            }
        }
    }
    assert!(drift.is_empty(), "preset configs drifted:\n  {}", drift.join("\n  "));
}
