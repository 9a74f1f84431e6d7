//! Provisioning helper: an inverse problem of the guarantee model.
//!
//! The forward question (§3) is "given a configuration, how many streams?"
//! Operators just as often ask the inverse: [`disks_for_population`] —
//! how many disks a target stream population needs under a quality
//! target.

use crate::{CoreError, GuaranteeModel};

/// Number of disks needed to guarantee `population` concurrent streams
/// under the per-stream glitch-rate target (`m`, `g`, `epsilon`).
///
/// # Errors
/// Propagates model-evaluation errors; errors if the target admits zero
/// streams per disk (no finite disk count works).
pub fn disks_for_population(
    model: &GuaranteeModel,
    t: f64,
    m: u64,
    g: u64,
    epsilon: f64,
    population: u32,
) -> Result<u32, CoreError> {
    let per_disk = model.n_max_error(t, m, g, epsilon)?;
    if per_disk == 0 {
        return Err(CoreError::Invalid(
            "the quality target admits zero streams per disk".into(),
        ));
    }
    Ok(population.div_ceil(per_disk))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GuaranteeModel {
        GuaranteeModel::paper_reference().unwrap()
    }

    #[test]
    fn disks_for_population_rounds_up() {
        let m = model();
        // 28 per disk under the paper's target.
        assert_eq!(
            disks_for_population(&m, 1.0, 1200, 12, 0.01, 28).unwrap(),
            1
        );
        assert_eq!(
            disks_for_population(&m, 1.0, 1200, 12, 0.01, 29).unwrap(),
            2
        );
        assert_eq!(
            disks_for_population(&m, 1.0, 1200, 12, 0.01, 500).unwrap(),
            18
        );
    }

    #[test]
    fn disks_for_population_zero_per_disk_errors() {
        // An absurd workload: 100 MB fragments every second.
        let m = GuaranteeModel::new(
            model().disk().clone(),
            1e8,
            1e14,
            crate::ZoneHandling::Discrete,
        )
        .unwrap();
        assert!(disks_for_population(&m, 1.0, 1200, 12, 0.01, 10).is_err());
    }
}
