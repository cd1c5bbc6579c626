//! Ready-made processor models.

use crate::level::FrequencyLevel;
use crate::model::CpuModel;

/// The paper's evaluation processor (§5.1): an Intel XScale-like part
/// with five operating points at 150/400/600/800/1000 MHz.
///
/// Powers follow the paper's 80/400/1000/2000/3200 mW table, expressed
/// in the workspace's watt-scale power units (0.08 … 3.2) so that they
/// are commensurate with the eq. 13 harvest source (mean ≈ 2 units);
/// see DESIGN.md, "Power units".
///
/// # Examples
///
/// ```
/// let cpu = harvest_cpu::presets::xscale();
/// assert_eq!(cpu.level_count(), 5);
/// assert_eq!(cpu.max_power(), 3.2);
/// assert!((cpu.speed(0) - 0.15).abs() < 1e-12);
/// ```
pub fn xscale() -> CpuModel {
    CpuModel::new(vec![
        FrequencyLevel::new(150.0, 0.08),
        FrequencyLevel::new(400.0, 0.4),
        FrequencyLevel::new(600.0, 1.0),
        FrequencyLevel::new(800.0, 2.0),
        FrequencyLevel::new(1000.0, 3.2),
    ])
    .expect("preset table is valid")
}

/// The two-speed processor of the paper's §2 motivational example:
/// "the high speed twice as fast as the low one, the power at high speed
/// 3 times as much" with `P_max = 8`.
pub fn two_speed_example() -> CpuModel {
    CpuModel::new(vec![
        FrequencyLevel::new(500.0, 8.0 / 3.0),
        FrequencyLevel::new(1000.0, 8.0),
    ])
    .expect("preset table is valid")
}

/// The processor of the paper's §4.3 over-stretching example (Fig. 3):
/// a quarter-speed level at power 1 alongside the full-speed level at
/// power 8.
pub fn quarter_speed_example() -> CpuModel {
    CpuModel::new(vec![
        FrequencyLevel::new(250.0, 1.0),
        FrequencyLevel::new(1000.0, 8.0),
    ])
    .expect("preset table is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xscale_matches_paper_table() {
        let cpu = xscale();
        let speeds: Vec<f64> = (0..5).map(|n| cpu.speed(n)).collect();
        assert_eq!(speeds, vec![0.15, 0.4, 0.6, 0.8, 1.0]);
        let powers: Vec<f64> = (0..5).map(|n| cpu.power(n)).collect();
        assert_eq!(powers, vec![0.08, 0.4, 1.0, 2.0, 3.2]);
    }

    #[test]
    fn two_speed_matches_section2() {
        let cpu = two_speed_example();
        assert_eq!(cpu.speed(0), 0.5);
        assert!((cpu.power(0) - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(cpu.max_power(), 8.0);
    }

    #[test]
    fn quarter_speed_matches_section43() {
        let cpu = quarter_speed_example();
        assert_eq!(cpu.speed(0), 0.25);
        assert_eq!(cpu.power(0), 1.0);
        assert_eq!(cpu.max_power(), 8.0);
    }

    #[test]
    fn xscale_energy_per_work_improves_at_low_speed() {
        let cpu = xscale();
        // Energy for 1 unit of work: P_n / S_n.
        let e_lo = cpu.execution_energy(1.0, 0);
        let e_hi = cpu.execution_energy(1.0, 4);
        assert!(
            e_lo < e_hi,
            "slowing down must save energy ({e_lo} vs {e_hi})"
        );
    }
}
