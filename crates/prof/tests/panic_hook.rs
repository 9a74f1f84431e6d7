//! The panic hook dumps every recorder it holds. It is process-wide, so
//! it runs in a test binary of its own and touches no other test.

use mzd_prof::{install_panic_hook, read_bundle, DumpTrigger, Recorder, RecorderSettings};

#[test]
fn a_panic_dumps_one_bundle_per_recorder() {
    let dir = std::env::temp_dir().join(format!("mzd-prof-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let recorders: Vec<Recorder> = (0..2)
        .map(|i| {
            let rec = Recorder::new(RecorderSettings::new(dir.join(format!("node-{i}"))));
            rec.push(mzd_prof::RoundSnapshot {
                round: i,
                ..mzd_prof::RoundSnapshot::default()
            });
            rec
        })
        .collect();
    install_panic_hook(recorders.clone());

    assert!(std::panic::catch_unwind(|| panic!("a serving loop crashed")).is_err());

    for (i, rec) in recorders.iter().enumerate() {
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1, "recorder {i}: {dumps:?}");
        let (trigger, path) = &dumps[0];
        assert_eq!(*trigger, DumpTrigger::Panic);
        assert!(path.starts_with(dir.join(format!("node-{i}"))), "{path:?}");
        let bundle = read_bundle(path).expect("the panic bundle verifies");
        assert_eq!(bundle.trigger, "panic");
        assert_eq!(bundle.rounds.len(), 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}
