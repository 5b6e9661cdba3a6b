use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tenoc_noc::{build_mesh, NetworkConfig, Packet, VcLayout};

fn reply_saturation(cfg: NetworkConfig, flit_bytes_note: &str) {
    let mcs = cfg.mc_nodes.clone();
    let cores: Vec<usize> = (0..cfg.mesh.len()).filter(|n| !mcs.contains(n)).collect();
    // Saturation probe: MCs always have replies to send.
    let mut net = build_mesh(cfg);
    let mut rng = SmallRng::seed_from_u64(9);
    let cycles = 20_000u64;
    for _ in 0..cycles {
        for &mc in &mcs {
            loop {
                let dst = cores[rng.gen_range(0..cores.len())];
                if net.try_inject(mc, Packet::reply(mc, dst, 64, 0)).is_err() {
                    break;
                }
            }
        }
        net.step();
        for &c in &cores {
            while net.pop(c).is_some() {}
        }
    }
    let s = net.stats();
    let bytes: f64 = mcs.iter().map(|&m| s.injected_flits_by_node[m] as f64).sum::<f64>()
        / cycles as f64
        / mcs.len() as f64;
    println!("{flit_bytes_note}: {:.2} flits/c/MC", bytes);
}

fn main() {
    // Single CP-CR 16B 4VC (replies share with requests, but requests absent here).
    reply_saturation(NetworkConfig::checkerboard_mesh(6), "single 16B 4VC       ");
    // Reply slice: 8B, 2VC, 1 class, 2 NI ports.
    let mut slice = NetworkConfig::checkerboard_mesh(6);
    slice.channel_bytes = 8;
    slice.vcs = VcLayout::new(2, 1, true);
    slice.mc_inject_ports = 2;
    reply_saturation(slice.clone(), "slice 8B 2VC 2port   ");
    let mut s4 = slice.clone();
    s4.vcs = VcLayout::new(4, 1, true);
    reply_saturation(s4, "slice 8B 4VC 2port   ");
    let mut s1 = slice.clone();
    s1.mc_inject_ports = 1;
    reply_saturation(s1, "slice 8B 2VC 1port   ");
    let mut d16 = slice.clone();
    d16.vc_depth = 16;
    reply_saturation(d16, "slice 8B 2VC 2p d16  ");
    let mut s44 = slice.clone();
    s44.vcs = VcLayout::new(4, 1, true);
    s44.mc_inject_ports = 4;
    reply_saturation(s44, "slice 8B 4VC 4port   ");
    let mut s4d = slice.clone();
    s4d.vcs = VcLayout::new(4, 1, true);
    s4d.vc_depth = 16;
    reply_saturation(s4d, "slice 8B 4VC 2p d16  ");
    let mut s8 = slice;
    s8.vcs = VcLayout::new(8, 1, true);
    reply_saturation(s8, "slice 8B 8VC 2port   ");
}
