//! Experiment scale presets.
//!
//! `full` follows the paper's parameters (5 000–10 000 steps, full sweeps);
//! `quick` shrinks horizons and sweeps for CI-class machines while keeping
//! every qualitative comparison intact.

/// Knobs controlling experiment size.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Steps for Fig. 7 (BasicReduction is the expensive tracker there).
    pub steps_fig7: u64,
    /// Steps for Figs. 8–10.
    pub steps_main: u64,
    /// Steps for the Fig. 11/12 parameter sweeps (many (k, L) points).
    pub steps_sweep: u64,
    /// Steps for Figs. 13–14 (RIS baselines rebuild per step).
    pub steps_ris: u64,
    /// Arrival windows for the `scale` persistence/memory experiment
    /// (each window is one dense batch; see `experiments::scale`).
    pub steps_persist: u64,
    /// Forget probabilities for Fig. 7's sweep.
    pub p_values: Vec<f64>,
    /// Budgets for Fig. 11's sweep.
    pub k_values: Vec<usize>,
    /// Lifetime caps for Fig. 12's sweep.
    pub l_values: Vec<u32>,
    /// Budgets for Figs. 13–14's k sweep.
    pub k_values_ris: Vec<usize>,
    /// Lifetime caps for Figs. 13–14's L sweep.
    pub l_values_ris: Vec<u32>,
    /// RR-pool cap for IMM/TIM+.
    pub max_rr: usize,
    /// DIM's sketch parameter β (§V-C uses 32).
    pub dim_beta: usize,
    /// Tenants hosted by the `chaos` fault-injection experiment.
    pub chaos_tenants: u32,
    /// Firehose ticks for the `chaos` experiment.
    pub chaos_ticks: u64,
    /// Mean batch size of the busiest `chaos` tenant.
    pub chaos_events_per_tick: u32,
    /// Floor on seeded fault events the `chaos` storm must inject (the
    /// run fails below it, so the chaos test cannot shrink into vacuity).
    pub chaos_min_faults: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Scale {
    /// Paper-scale settings.
    pub fn full() -> Self {
        Scale {
            steps_fig7: 5_000,
            steps_main: 5_000,
            steps_sweep: 2_500,
            steps_ris: 2_000,
            steps_persist: 128,
            p_values: vec![0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008],
            k_values: (1..=10).map(|i| i * 10).collect(),
            l_values: (1..=10).map(|i| i * 10_000).collect(),
            k_values_ris: vec![10, 20, 30, 40, 50],
            l_values_ris: vec![10_000, 20_000, 30_000, 40_000, 50_000],
            max_rr: 10_000,
            dim_beta: 32,
            chaos_tenants: 96,
            chaos_ticks: 600,
            chaos_events_per_tick: 10,
            chaos_min_faults: 1_000,
            seed: 42,
        }
    }

    /// CI-scale settings (minutes, not hours).
    pub fn quick() -> Self {
        Scale {
            steps_fig7: 800,
            steps_main: 1_000,
            steps_sweep: 600,
            steps_ris: 300,
            steps_persist: 48,
            p_values: vec![0.001, 0.002, 0.004, 0.008],
            k_values: vec![10, 30, 50, 70, 100],
            l_values: vec![10_000, 40_000, 70_000, 100_000],
            k_values_ris: vec![10, 30, 50],
            l_values_ris: vec![10_000, 30_000, 50_000],
            max_rr: 2_000,
            dim_beta: 32,
            chaos_tenants: 24,
            chaos_ticks: 160,
            chaos_events_per_tick: 6,
            chaos_min_faults: 200,
            seed: 42,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.steps_main < f.steps_main);
        assert!(q.steps_persist < f.steps_persist);
        assert!(q.p_values.len() <= f.p_values.len());
        assert!(q.max_rr < f.max_rr);
        assert!(q.chaos_min_faults < f.chaos_min_faults);
        assert!(
            q.chaos_min_faults >= 200,
            "quick chaos storm still injects >= 200 faults"
        );
        assert_eq!(q.dim_beta, 32, "quick keeps the paper's beta");
    }

    #[test]
    fn full_matches_paper_sweeps() {
        let f = Scale::full();
        assert_eq!(f.p_values.len(), 8);
        assert_eq!(f.k_values, vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(f.dim_beta, 32);
    }
}
