//! Layer probes of the traced run that no workload's loop isolates:
//! one cold lint per variant, the ISA engine's replay rate, and the
//! mesh ring transport's panel throughput. Each calls only the layer's
//! public functions.

use crate::spans::Spans;
use std::time::{Duration, Instant};
use sw_dgemm::variants::raw::RawParams;
use sw_dgemm::{lint_variant, Variant};
use sw_isa::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
use sw_isa::{EngineBackend, Machine, SinkComm};
use sw_mesh::{Mesh, MeshTransport};

/// How long the replay probe runs the kernel again and again.
const REPLAY_TIME: Duration = Duration::from_millis(300);

/// Panels of 16 doubles (4 mesh words) the ring probe sends.
const RING_PANELS: usize = 40_000;

/// One cold `lint_variant` call per variant at the paper's blockings.
/// Must run before anything else in the process warms the lint memo.
pub fn lint_cold(spans: &mut Spans) {
    for v in [
        Variant::Raw,
        Variant::Pe,
        Variant::Row,
        Variant::Db,
        Variant::Sched,
    ] {
        let report = spans.time("lint.variant", 0, || {
            lint_variant(v, &v.paper_params(), RawParams::paper())
        });
        std::hint::black_box(report);
    }
}

/// Million instructions per second replaying the SCHED kernel stream
/// of one thread-level block (pM = 16, pN = 32, pK = 96) on the default
/// engine backend.
pub fn isa_replay_minstr_s(spans: &mut Spans) -> f64 {
    let cfg = BlockKernelCfg {
        pm: 16,
        pn: 32,
        pk: 96,
        a_src: Operand::Ldm,
        b_src: Operand::Ldm,
        a_base: 0,
        b_base: 2048,
        c_base: 6144,
        alpha_addr: 8000,
    };
    let prog = gen_block_kernel(&cfg, KernelStyle::Scheduled);
    let mut ldm = vec![0.0f64; 8192];
    ldm[cfg.alpha_addr] = 1.0;
    let mut comm = SinkComm;
    let (mut instructions, mut calls) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed() < REPLAY_TIME {
        let report = spans.time("isa.replay", calls, || {
            Machine::new(&mut ldm, &mut comm).run_backend(EngineBackend::default(), &prog)
        });
        instructions += report.instructions;
        calls += 1;
    }
    instructions as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Million delivered words per second through the ring transport's
/// ports: one thread broadcasts 16-double panels along mesh row 0, a
/// second drains all 7 row mates' ports.
pub fn mesh_ring_mwords_s(spans: &mut Spans) -> f64 {
    let mesh = Mesh::with_transport(Duration::from_secs(30), MeshTransport::Ring);
    let mut ports = mesh.ports();
    ports.truncate(8);
    let mates: Vec<_> = ports.drain(1..).collect();
    let tx = ports.pop().expect("port (0, 0)");
    let t0 = Instant::now();
    spans.time("mesh.ring_stream", 0, || {
        std::thread::scope(|s| {
            s.spawn(move || {
                let panel: [f64; 16] = std::array::from_fn(|i| i as f64);
                for _ in 0..RING_PANELS {
                    tx.row_bcast_panel(&panel).expect("ring broadcast");
                }
            });
            s.spawn(move || {
                let mut out = [0.0f64; 16];
                for p in 0..RING_PANELS {
                    for mate in &mates {
                        mate.recv_row_panel(&mut out).expect("ring receive");
                    }
                    assert_eq!(out[15], 15.0, "panel {p} arrived corrupted");
                }
            });
        });
    });
    (RING_PANELS * 4 * 7) as f64 / t0.elapsed().as_secs_f64() / 1e6
}
