//! The catalog the model-wide tests sweep.

use mzd_core::{GuaranteeModel, ZoneHandling};
use mzd_disk::profiles;

/// Every catalog disk under the paper's Gamma(200 KB, (100 KB)²)
/// fragments, plain and inflated by the `flaky` fault preset.
pub fn models() -> Vec<(String, GuaranteeModel)> {
    let flaky = mzd_fault::FaultModel::from_config(
        &mzd_fault::FaultConfig::preset("flaky").expect("known preset"),
    );
    let catalog = [
        ("viking", profiles::quantum_viking_2_1()),
        ("single75", profiles::single_zone_75kb()),
        ("legacy", profiles::legacy_single_zone()),
        ("nextgen", profiles::next_generation()),
        ("synthetic2to1", profiles::synthetic_two_to_one()),
    ];
    let mut out = Vec::new();
    for (name, profile) in catalog {
        let disk = profile.build().expect("catalog disk builds");
        let plain = GuaranteeModel::new(disk, 200_000.0, 1e10, ZoneHandling::Discrete)
            .expect("valid model");
        let faulty = plain.with_faults(&flaky).expect("valid fault model");
        out.push((name.to_string(), plain));
        out.push((format!("{name}+flaky"), faulty));
    }
    out
}
