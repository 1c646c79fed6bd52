//! Energy accounting — the substitution for the paper's PAPI/NVML
//! measurements (Fig. 10).
//!
//! Power is modeled as `idle + (max − idle) · activity`, integrated over
//! simulated time. "Activity" for a kernel is its mean SM busy fraction;
//! idle gaps (e.g. while the host issues launches) burn idle power.

/// A linear power model between idle and peak draw.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PowerModel {
    /// Watts drawn with no work resident.
    pub(crate) idle_w: f64,
    /// Watts drawn at full activity.
    pub(crate) max_w: f64,
}

impl PowerModel {
    /// Instantaneous power at `activity ∈ [0, 1]`.
    #[must_use]
    pub(crate) fn power_w(&self, activity: f64) -> f64 {
        self.idle_w + (self.max_w - self.idle_w) * activity.clamp(0.0, 1.0)
    }
}

/// Integrates energy over the simulated timeline.
#[derive(Clone, Debug)]
pub(crate) struct EnergyMeter {
    model: PowerModel,
    joules: f64,
}

impl EnergyMeter {
    /// New meter over `model`, starting at zero joules.
    #[must_use]
    pub(crate) fn new(model: PowerModel) -> Self {
        Self { model, joules: 0.0 }
    }

    /// Adds `seconds` of operation at `activity ∈ [0, 1]`.
    pub(crate) fn add_interval(&mut self, seconds: f64, activity: f64) {
        self.joules += self.model.power_w(activity) * seconds;
    }

    /// Total integrated energy in joules.
    #[must_use]
    pub(crate) fn joules(&self) -> f64 {
        self.joules
    }

    /// Resets the integral (for measuring a region of interest).
    pub(crate) fn reset(&mut self) {
        self.joules = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_interpolates_and_clamps() {
        let m = PowerModel {
            idle_w: 20.0,
            max_w: 220.0,
        };
        assert_eq!(m.power_w(0.0), 20.0);
        assert_eq!(m.power_w(1.0), 220.0);
        assert_eq!(m.power_w(0.5), 120.0);
        assert_eq!(m.power_w(2.0), 220.0);
        assert_eq!(m.power_w(-1.0), 20.0);
    }

    #[test]
    fn meter_integrates() {
        let mut e = EnergyMeter::new(PowerModel {
            idle_w: 10.0,
            max_w: 110.0,
        });
        e.add_interval(2.0, 0.0); // 20 J idle
        e.add_interval(1.0, 1.0); // 110 J busy
        assert!((e.joules() - 130.0).abs() < 1e-12);
        e.reset();
        assert_eq!(e.joules(), 0.0);
    }
}
