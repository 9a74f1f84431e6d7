//! Pins one single-server run with every round stage engaged: a cached,
//! work-ahead, fault-injected, SLO-traced server on the degradation
//! ladder. The run is the one node of
//!
//! ```text
//! mzd serve --rounds 300 --streams 70 --disks 2 --seed 13 --objects 64 \
//!     --object-rounds 120 --cache-bytes 4000000 --cache-safety 0.2 \
//!     --zipf 1.0 --work-ahead 2 --fault-profile media=0.25,retries=2,timeout=0.005 \
//!     --degrade --trace-out t.json
//! ```
//!
//! seeded with 13 itself (`serve` seeds its node with
//! `mzd_par::derive_seed(13, 0)`), with the same client: requests the
//! server refuses wait, and are offered again oldest first each round.
//!
//! and folds every round report, the causal trace and the final layer
//! summaries into one FNV-1a digest. Any change to RNG draw order, stage
//! order or bookkeeping moves the digest. The run is pinned under each
//! cache policy (`--cache-policy lru|interval|cost`): the interval
//! policy's digest also pins the reader positions its evictions depend
//! on. The tests take turns on one lock, so each reads the
//! process-global `server.prefetch.fetched` counter as a delta of its
//! own run.

use mzd_cache::CachePolicy;
use mzd_server::{
    CacheSettings, DegradeSettings, RoundReport, ServerConfig, SloSettings, VideoServer,
};
use mzd_workload::{ObjectSpec, SizeDistribution, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Serializes the runs, so the prefetch counter's delta is one run's.
static RUNS: Mutex<()> = Mutex::new(());

/// What one run pins besides its digest.
#[derive(Debug, PartialEq)]
struct Pinned {
    prefetched: u64,
    delayed_hits: u64,
    refusals: u64,
    completions: usize,
    alerts_and_drifts: (u64, u64),
    rung_and_shed: (u8, u64),
    digest: u64,
}

/// Byte sink folded into one `mzd_prof::fnv1a64` digest at the end.
#[derive(Default)]
struct Fold(Vec<u8>);

impl Fold {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn ids(&mut self, ids: &[u64]) {
        self.u64(ids.len() as u64);
        for &id in ids {
            self.u64(id);
        }
    }

    fn report(&mut self, r: &RoundReport) {
        self.u64(r.round);
        self.u64(r.disks.len() as u64);
        for d in &r.disks {
            self.u64(u64::from(d.disk));
            self.u64(u64::from(d.requests));
            self.u64(u64::from(d.late));
            for v in [
                d.service_time,
                d.seek_time,
                d.rotational_time,
                d.transfer_time,
                d.fault_time,
            ] {
                self.f64(v);
            }
        }
        self.ids(&r.glitched_streams);
        let completed: Vec<u64> = r.completed_streams.iter().map(|c| c.id).collect();
        self.ids(&completed);
    }
}

/// Open the waiting requests oldest first until the server refuses
/// one: the client postpones a refused request until streams terminate
/// (§1), as `mzd serve`'s client does.
fn admit_waiting(server: &mut VideoServer, waiting: &mut VecDeque<ObjectSpec>) {
    while let Some(object) = waiting.front() {
        if server.open_stream(object.clone()).is_err() {
            break;
        }
        waiting.pop_front();
    }
}

/// The process-global prefetch counter (0 before any server registers
/// it).
fn prefetched_so_far() -> u64 {
    mzd_telemetry::global()
        .snapshot()
        .counters
        .get("server.prefetch.fetched")
        .copied()
        .unwrap_or(0)
}

fn run(policy: CachePolicy) -> Pinned {
    let _turn = RUNS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let prefetched_before = prefetched_so_far();
    let seed = 13;
    let mut cfg = ServerConfig::paper_reference(2).unwrap();
    cfg.cache = Some(CacheSettings {
        admission_safety: Some(0.2),
        policy,
        ..CacheSettings::lru(4_000_000.0)
    });
    cfg.faults = Some(mzd_fault::FaultConfig::parse("media=0.25,retries=2,timeout=0.005").unwrap());
    cfg.work_ahead = 2;
    cfg.degrade = Some(DegradeSettings::default());
    let target = cfg.target;
    let mut server = VideoServer::new(cfg, seed).unwrap();
    server
        .enable_slo(SloSettings::for_target(target).with_tracing())
        .unwrap();

    let sizes = SizeDistribution::gamma(200_000.0, 1e10).unwrap();
    let catalog: Vec<ObjectSpec> = (0..64u64)
        .map(|i| {
            ObjectSpec::new(format!("obj-{i}"), sizes.clone(), 120)
                .unwrap()
                .with_content_id(i + 1)
        })
        .collect();
    let zipf = Zipf::new(catalog.len(), 1.0).unwrap();
    let mut arrivals = StdRng::seed_from_u64(seed ^ 0x5EED_CA7A_0A11_0C8D);
    let mut waiting: VecDeque<ObjectSpec> = (0..70)
        .map(|_| catalog[zipf.sample(&mut arrivals)].clone())
        .collect();
    admit_waiting(&mut server, &mut waiting);

    let mut fold = Fold::default();
    let mut completions = 0usize;
    for _ in 0..300 {
        let report = server.run_round();
        fold.report(&report);
        for _ in &report.completed_streams {
            completions += 1;
            waiting.push_back(catalog[zipf.sample(&mut arrivals)].clone());
        }
        admit_waiting(&mut server, &mut waiting);
    }

    let trace = mzd_slo::render_chrome_json(&[server.tracer().unwrap()]);
    fold.0.extend_from_slice(trace.as_bytes());
    let slo = server.slo_status().unwrap();
    for flag in [
        slo.alert_active,
        slo.drift_active,
        slo.over_admission_frozen,
    ] {
        fold.u64(u64::from(flag));
    }
    for v in [slo.alerts_raised, slo.drifts_raised, slo.trace_spans as u64] {
        fold.u64(v);
    }
    for v in [
        slo.burn_fast,
        slo.burn_slow,
        slo.burn_long,
        slo.ks_statistic,
        slo.tail_exceedance,
    ] {
        fold.f64(v);
    }
    let degrade = server.degrade_status().unwrap();
    for v in [
        u64::from(degrade.rung),
        degrade.escalations,
        degrade.recoveries,
        degrade.shed_streams,
    ] {
        fold.u64(v);
    }
    let cache = server.cache().unwrap();
    let stats = *cache.stats();
    for v in [
        stats.hits,
        stats.delayed_hits,
        stats.misses,
        stats.evictions,
        stats.insertions,
        stats.rejected_fills,
        cache.len() as u64,
    ] {
        fold.u64(v);
    }
    fold.f64(cache.occupancy_bytes());

    Pinned {
        prefetched: prefetched_so_far() - prefetched_before,
        delayed_hits: stats.delayed_hits,
        refusals: server.rejected_streams(),
        completions,
        alerts_and_drifts: (slo.alerts_raised, slo.drifts_raised),
        rung_and_shed: (degrade.rung, degrade.shed_streams),
        digest: mzd_prof::fnv1a64(&fold.0),
    }
}

/// Prefetch and coalescing (partition, sweep, cache), postponed
/// admissions and completions (advance) and a drift (slo) did work. This run climbs no
/// rung and raises no alert; the cost-aware run below does both, so the
/// three runs together engage every stage.
#[test]
fn full_layer_round_is_pinned() {
    let got = run(CachePolicy::Lru);
    assert_eq!(
        got,
        Pinned {
            prefetched: 5_485,
            delayed_hits: 9_588,
            refusals: 5,
            completions: 140,
            alerts_and_drifts: (0, 1),
            rung_and_shed: (0, 0),
            digest: 0xab61_6327_e902_e599,
        },
        "digest {:#018x}",
        got.digest
    );
}

/// The same run under interval caching, whose evictions skip fragments
/// straddled by two readers of one object.
#[test]
fn full_layer_round_is_pinned_under_interval_caching() {
    let got = run(CachePolicy::Interval);
    assert_eq!(
        got,
        Pinned {
            prefetched: 6_316,
            delayed_hits: 9_333,
            refusals: 5,
            completions: 140,
            alerts_and_drifts: (0, 1),
            rung_and_shed: (0, 0),
            digest: 0x4b6b_1068_d4d1_42f7,
        },
        "digest {:#018x}",
        got.digest
    );
}

/// The same run under cost-aware replacement. It raises an alert and
/// climbs to the ladder's top rung (degrade), shedding streams.
#[test]
fn full_layer_round_is_pinned_under_cost_aware_caching() {
    let got = run(CachePolicy::CostAware);
    assert_eq!(
        got,
        Pinned {
            prefetched: 4_147,
            delayed_hits: 8_594,
            refusals: 66,
            completions: 140,
            alerts_and_drifts: (1, 1),
            rung_and_shed: (4, 14),
            digest: 0xf5a1_1446_474a_6de8,
        },
        "digest {:#018x}",
        got.digest
    );
}
