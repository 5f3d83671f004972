//! Two-phase separator vessel with liquid-level dynamics.
//!
//! The Inlet Separator and the Low-Temperature Separator of Fig. 4. Feed is
//! flashed at vessel conditions; vapor leaves overhead immediately (vapor
//! holdup is negligible at these flows), liquid accumulates in the boot and
//! is withdrawn through the level-control valve. The liquid **level
//! percentage** is the paper's headline process variable (Fig. 6b, solid
//! red trace).

use crate::stream::Stream;
use crate::thermo::{Composition, FlashResult, N_COMPONENTS};

/// A vertical two-phase separator.
#[derive(Debug, Clone, PartialEq)]
pub struct Separator {
    /// Liquid-section volume, m³.
    volume_m3: f64,
    /// Operating temperature, K.
    t_k: f64,
    /// Operating pressure, kPa.
    p_kpa: f64,
    /// Current liquid inventory, kmol.
    holdup_kmol: f64,
    /// Composition of the held liquid.
    liquid_comp: Composition,
    /// Liquid inflow over the last step, kmol/h (for reporting).
    last_liquid_in: f64,
    last_flash: FlashMemo,
}

/// The last flash a vessel solved, keyed by the bit patterns of `T`, `P`
/// and the feed composition: the inlet feed never changes and the LTS feed
/// moves only with the chiller. A cache, so any two memos compare equal.
#[derive(Debug, Clone, Default)]
struct FlashMemo(Option<(FlashKey, FlashResult)>);

/// Bit patterns of `T`, `P` and the composition fractions.
type FlashKey = (u64, u64, [u64; N_COMPONENTS]);

impl PartialEq for FlashMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl FlashMemo {
    /// Flashes `s`, reusing the last result when its inputs are
    /// bit-identical; the flash is a pure function of those bits.
    fn flash(&mut self, s: &Stream) -> FlashResult {
        let key = (
            s.t_k.to_bits(),
            s.p_kpa.to_bits(),
            s.composition.fractions().map(f64::to_bits),
        );
        match self.0 {
            Some((k, res)) if k == key => res,
            _ => self.0.insert((key, s.flash())).1,
        }
    }
}

impl Separator {
    /// Creates a separator at the given conditions with an initial level.
    ///
    /// # Panics
    ///
    /// Panics if volume, temperature or pressure are not strictly
    /// positive, or the initial level is outside 0–100 %.
    #[must_use]
    pub fn new(
        volume_m3: f64,
        t_k: f64,
        p_kpa: f64,
        initial_level_pct: f64,
        initial_comp: Composition,
    ) -> Self {
        assert!(volume_m3 > 0.0, "volume must be positive");
        assert!(t_k > 0.0 && p_kpa > 0.0, "bad operating conditions");
        assert!(
            (0.0..=100.0).contains(&initial_level_pct),
            "level out of range"
        );
        let mut sep = Separator {
            volume_m3,
            t_k,
            p_kpa,
            holdup_kmol: 0.0,
            liquid_comp: initial_comp,
            last_liquid_in: 0.0,
            last_flash: FlashMemo::default(),
        };
        sep.holdup_kmol = sep.max_holdup_kmol() * initial_level_pct / 100.0;
        sep
    }

    /// Vessel capacity in kmol of the *current* liquid.
    #[must_use]
    pub fn max_holdup_kmol(&self) -> f64 {
        self.volume_m3 / self.liquid_comp.liquid_molar_volume()
    }

    /// Liquid level, percent of the liquid section.
    #[must_use]
    pub fn level_pct(&self) -> f64 {
        (self.holdup_kmol / self.max_holdup_kmol() * 100.0).clamp(0.0, 100.0)
    }

    /// Operating temperature, K.
    #[must_use]
    pub fn t_k(&self) -> f64 {
        self.t_k
    }

    /// Operating pressure, kPa.
    #[must_use]
    pub fn p_kpa(&self) -> f64 {
        self.p_kpa
    }

    /// Sets the operating temperature (driven by the chiller loop for the
    /// LTS).
    pub fn set_t_k(&mut self, t_k: f64) {
        assert!(t_k > 0.0, "temperature must be positive");
        self.t_k = t_k;
    }

    /// Liquid condensation rate into the boot over the last step, kmol/h.
    #[must_use]
    pub fn last_liquid_in(&self) -> f64 {
        self.last_liquid_in
    }

    /// Feeds the vessel for `dt_s` seconds: the feed is flashed at vessel
    /// conditions, the liquid cut accumulates, and the vapor cut leaves
    /// overhead (returned).
    pub fn feed(&mut self, feed: &Stream, dt_s: f64) -> Stream {
        assert!(dt_s > 0.0, "dt must be positive");
        let at_vessel = Stream {
            t_k: self.t_k,
            p_kpa: self.p_kpa,
            ..*feed
        };
        let (vapor, liquid) = at_vessel.split_by(&self.last_flash.flash(&at_vessel));
        self.last_liquid_in = liquid.molar_flow;
        if liquid.molar_flow > 0.0 {
            let added = liquid.molar_flow * dt_s / 3600.0;
            self.liquid_comp = Composition::mix(
                &self.liquid_comp,
                self.holdup_kmol,
                &liquid.composition,
                added,
            );
            self.holdup_kmol = (self.holdup_kmol + added).min(self.max_holdup_kmol());
        }
        vapor
    }

    /// Withdraws liquid at the requested rate for `dt_s` seconds; the
    /// returned stream's flow is limited by the available inventory.
    pub fn draw_liquid(&mut self, rate_kmolh: f64, dt_s: f64) -> Stream {
        assert!(dt_s > 0.0, "dt must be positive");
        let rate = rate_kmolh.max(0.0);
        let want_kmol = rate * dt_s / 3600.0;
        let got_kmol = want_kmol.min(self.holdup_kmol);
        self.holdup_kmol -= got_kmol;
        Stream::new(
            got_kmol * 3600.0 / dt_s,
            self.t_k,
            self.p_kpa,
            self.liquid_comp,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermo::Component;

    fn lts() -> Separator {
        Separator::new(
            5.0,
            253.15,
            6000.0,
            50.0,
            Composition::new([0.0, 0.01, 0.15, 0.25, 0.35, 0.12, 0.12]),
        )
    }

    fn feed() -> Stream {
        Stream::new(1400.0, 303.15, 6000.0, Composition::raw_natural_gas())
    }

    #[test]
    fn initial_level_matches() {
        let s = lts();
        assert!((s.level_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn feeding_raises_level_and_returns_vapor() {
        let mut s = lts();
        let l0 = s.level_pct();
        let vap = s.feed(&feed(), 10.0);
        assert!(vap.molar_flow > 0.0 && vap.molar_flow < 1400.0);
        assert!(s.level_pct() > l0, "liquid must accumulate");
        assert!(s.last_liquid_in() > 0.0);
        // Vapor leaves at vessel conditions.
        assert_eq!(vap.t_k, 253.15);
    }

    #[test]
    fn drawing_lowers_level_and_conserves_moles() {
        let mut s = lts();
        let before = s.holdup_kmol;
        let out = s.draw_liquid(120.0, 30.0);
        let removed = out.molar_flow * 30.0 / 3600.0;
        assert!((before - s.holdup_kmol - removed).abs() < 1e-9);
        assert!(s.level_pct() < 50.0);
    }

    #[test]
    fn draw_limited_by_inventory() {
        let mut s = Separator::new(1.0, 253.15, 6000.0, 1.0, Composition::pure(Component::C3));
        // Ask for far more than is held.
        let out = s.draw_liquid(1e6, 60.0);
        assert!(s.level_pct() < 1e-9, "vessel must be empty");
        assert!(out.molar_flow < 1e6);
    }

    #[test]
    fn mass_balance_over_feed_and_draw() {
        let mut s = lts();
        let h0 = s.holdup_kmol;
        let dt = 5.0;
        let mut fed_liquid = 0.0;
        let mut drawn = 0.0;
        for _ in 0..100 {
            let _v = s.feed(&feed(), dt);
            fed_liquid += s.last_liquid_in() * dt / 3600.0;
            let out = s.draw_liquid(80.0, dt);
            drawn += out.molar_flow * dt / 3600.0;
        }
        assert!(
            (s.holdup_kmol - (h0 + fed_liquid - drawn)).abs() < 1e-6,
            "holdup drifted"
        );
    }

    #[test]
    fn warmer_vessel_condenses_less() {
        let mut cold = lts();
        let mut warm = lts();
        warm.set_t_k(283.15);
        let _ = cold.feed(&feed(), 10.0);
        let _ = warm.feed(&feed(), 10.0);
        assert!(warm.last_liquid_in() < cold.last_liquid_in());
    }
}
