//! Property-based tests for the server layer: conservation and balance
//! invariants under randomized churn (opens, closes, rounds).

use mzd_server::{ServerConfig, StreamHandle, VideoServer};
use mzd_workload::{ObjectSpec, SizeDistribution};
use proptest::prelude::*;

/// One step of a random churn script.
#[derive(Debug, Clone)]
enum Op {
    Open(u32),
    CloseOldest,
    Round,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (2u32..60).prop_map(Op::Open),
        Just(Op::CloseOldest),
        Just(Op::Round),
        Just(Op::Round), // weight rounds higher
    ]
}

fn obj(rounds: u32) -> ObjectSpec {
    ObjectSpec::new("prop", SizeDistribution::paper_default(), rounds).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn churn_preserves_conservation_invariants(
        ops in prop::collection::vec(arb_op(), 1..60),
        disks in 1u32..5,
        seed in 0u64..50,
    ) {
        let mut server =
            VideoServer::new(ServerConfig::paper_reference(disks).expect("valid"), seed)
                .expect("valid");
        let mut admitted: u64 = 0;
        let mut completed: u64 = 0;
        let mut handles: Vec<StreamHandle> = Vec::new();
        for op in ops {
            match op {
                Op::Open(rounds) => {
                    if let Ok(h) = server.open_stream(obj(rounds)) {
                        admitted += 1;
                        handles.push(h);
                    }
                }
                Op::CloseOldest => {
                    if let Some(h) = handles.first().copied() {
                        if let Ok(rec) = server.close_stream(h) {
                            prop_assert_eq!(rec.id, h.id());
                            completed += 1;
                            handles.remove(0);
                        }
                    }
                }
                Op::Round => {
                    let report = server.run_round();
                    // Completed handles leave our tracking set.
                    handles.retain(|h| report.completed_streams.iter().all(|c| c.id != h.id()));
                    completed += report.completed_streams.len() as u64;
                    // Per-round structural checks.
                    prop_assert_eq!(report.disks.len(), disks as usize);
                    for d in &report.disks {
                        prop_assert!(d.service_time >= 0.0);
                    }
                }
            }
            // Conservation: active + completed == admitted, always.
            prop_assert_eq!(
                server.active_streams() as u64 + completed,
                admitted
            );
            // The per-disk load vector sums to the active session count
            // and never exceeds the admission limit anywhere.
            let load = server.per_disk_load();
            let total: u32 = load.iter().sum();
            prop_assert_eq!(total as usize, server.active_streams());
            for &l in load {
                prop_assert!(
                    l <= server.admission().per_disk_limit(),
                    "disk over limit: {l}"
                );
            }
        }
    }

    #[test]
    fn completed_streams_play_exactly_their_length(
        rounds in 1u32..30,
        disks in 1u32..4,
        seed in 0u64..30,
    ) {
        let mut server =
            VideoServer::new(ServerConfig::paper_reference(disks).expect("valid"), seed)
                .expect("valid");
        let h = server.open_stream(obj(rounds)).expect("empty server admits");
        let mut completed = Vec::new();
        for _ in 0..rounds {
            prop_assert_eq!(server.active_streams(), 1);
            completed.extend(server.run_round().completed_streams);
        }
        prop_assert_eq!(server.active_streams(), 0);
        prop_assert_eq!(completed.len(), 1);
        let rec = &completed[0];
        prop_assert_eq!(rec.id, h.id());
        prop_assert_eq!(rec.rounds_played, rounds);
        prop_assert!(rec.glitches <= u64::from(rounds));
    }

    #[test]
    fn admission_cap_is_exactly_disks_times_limit(
        disks in 1u32..5,
        seed in 0u64..20,
    ) {
        let mut server =
            VideoServer::new(ServerConfig::paper_reference(disks).expect("valid"), seed)
                .expect("valid");
        let limit = server.admission().per_disk_limit();
        let mut count = 0u32;
        while server.open_stream(obj(1000)).is_ok() {
            count += 1;
            prop_assert!(count <= disks * limit + 1, "runaway admission");
        }
        prop_assert_eq!(count, disks * limit);
    }
}
