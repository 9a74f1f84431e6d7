//! A day in the life of a striped video server.
//!
//! Brings up a 4-disk server with the paper's per-stream quality target
//! (at most 1% glitched fragments per 20-minute stream, with 99%
//! confidence), replays an arrival workload of heterogeneous clients
//! (news clips, feature movies, audio), and reports admissions,
//! rejections, glitches and client buffer requirements.
//!
//! Run with: `cargo run --release --example video_server`

use mzd_server::{AdmissionDecision, ServerConfig, VideoServer};
use mzd_workload::{ObjectCatalog, ObjectSpec};

fn main() {
    let disks = 4;
    let catalog = ObjectCatalog::demo().expect("valid catalog");

    // §2.3: "workload statistics, e.g., on the distribution of fragment
    // sizes, are fed into the admission control". Feeding the *actual*
    // catalog moments is essential — admitting against the wrong size
    // statistics silently voids the guarantee.
    let (mean, var) = catalog.pooled_moments().expect("non-empty catalog");
    let mut cfg = ServerConfig::paper_reference(disks).expect("valid config");
    cfg.admission_size_mean = mean;
    cfg.admission_size_variance = var;

    let mut server = VideoServer::new(cfg, 2024).expect("valid server");
    println!(
        "server up: {disks} disks, per-disk limit {} streams (glitch-rate target,",
        server.admission().per_disk_limit()
    );
    println!(
        "admission stats from catalog: mean {:.0} KB, sd {:.0} KB)",
        mean / 1000.0,
        var.sqrt() / 1000.0
    );
    println!("catalog: {} objects", catalog.len());
    for o in catalog.objects() {
        println!(
            "  {:15}  {:>7.1} s long, ~{:.1} Mbit/s",
            o.name,
            f64::from(o.rounds),
            o.sizes.mean() * 8.0 / 1e6
        );
    }

    // Arrival pattern: every few rounds a new client asks for an object,
    // cycling through the catalog. Run for 30 simulated minutes.
    let rounds = 1800u64;
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    let mut glitch_total = 0u64;
    let mut completed = Vec::new();
    for round in 0..rounds {
        if round % 3 == 0 {
            let obj = &catalog.objects()[(round as usize / 3) % catalog.len()];
            // Shorten the movie so sessions turn over within the demo.
            let obj = ObjectSpec::new(obj.name.clone(), obj.sizes.clone(), obj.rounds.min(600))
                .expect("valid object");
            match server.open_stream(obj) {
                Ok(_) => admitted += 1,
                Err(AdmissionDecision::Reject { .. }) => rejected += 1,
                Err(AdmissionDecision::Admit) => unreachable!(),
            }
        }
        let report = server.run_round();
        glitch_total += report.glitched_streams.len() as u64;
        completed.extend(report.completed_streams);
    }

    println!("\nafter {rounds} rounds ({} minutes):", rounds / 60);
    println!("  admitted:        {admitted}");
    println!("  rejected:        {rejected}");
    println!("  still active:    {}", server.active_streams());
    println!("  completed:       {}", completed.len());
    println!("  total glitches:  {glitch_total}");

    // Per-stream quality of the completed streams.
    if !completed.is_empty() {
        let worst = completed.iter().max_by_key(|c| c.glitches).unwrap();
        let glitchy = completed
            .iter()
            .filter(|c| c.glitches as f64 > 0.01 * f64::from(c.rounds_played))
            .count();
        println!(
            "  worst stream:    {} glitches over {} rounds ({})",
            worst.glitches, worst.rounds_played, worst.object
        );
        println!(
            "  streams over the 1% glitch budget: {glitchy} of {} ({:.2}%)",
            completed.len(),
            100.0 * glitchy as f64 / completed.len() as f64
        );
        let max_buf = completed
            .iter()
            .map(|c| c.buffer_high_water)
            .fold(0.0f64, f64::max);
        println!(
            "  max client buffer high-water mark: {:.2} MB",
            max_buf / 1e6
        );
    }
}
