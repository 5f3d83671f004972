//! Pure-component property data.
//!
//! The paper's feed: "a raw natural gas stream containing N2, CO2, and C1
//! through n-C4" (§4.1). Critical properties and acentric factors are the
//! standard values (Reid/Prausnitz/Poling tables); liquid densities are
//! saturated values used for molar-volume (level) calculations.

use std::fmt;

/// Number of components in the fixed system.
pub const N_COMPONENTS: usize = 7;

/// The seven components of the raw natural gas feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Nitrogen.
    N2,
    /// Carbon dioxide.
    Co2,
    /// Methane.
    C1,
    /// Ethane.
    C2,
    /// Propane.
    C3,
    /// Isobutane.
    IC4,
    /// n-Butane.
    NC4,
}

impl Component {
    /// All components in canonical order (the index order used by
    /// [`crate::thermo::Composition`]).
    pub const ALL: [Component; N_COMPONENTS] = [
        Component::N2,
        Component::Co2,
        Component::C1,
        Component::C2,
        Component::C3,
        Component::IC4,
        Component::NC4,
    ];

    /// Canonical index: the declaration order, which [`Component::ALL`] follows.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Critical temperature, K.
    #[must_use]
    pub fn tc_k(self) -> f64 {
        match self {
            Component::N2 => 126.2,
            Component::Co2 => 304.2,
            Component::C1 => 190.6,
            Component::C2 => 305.3,
            Component::C3 => 369.8,
            Component::IC4 => 408.1,
            Component::NC4 => 425.1,
        }
    }

    /// Critical pressure, kPa.
    #[must_use]
    pub fn pc_kpa(self) -> f64 {
        match self {
            Component::N2 => 3394.0,
            Component::Co2 => 7382.0,
            Component::C1 => 4599.0,
            Component::C2 => 4872.0,
            Component::C3 => 4248.0,
            Component::IC4 => 3648.0,
            Component::NC4 => 3796.0,
        }
    }

    /// Acentric factor (dimensionless).
    #[must_use]
    pub fn omega(self) -> f64 {
        match self {
            Component::N2 => 0.037,
            Component::Co2 => 0.225,
            Component::C1 => 0.011,
            Component::C2 => 0.099,
            Component::C3 => 0.152,
            Component::IC4 => 0.186,
            Component::NC4 => 0.200,
        }
    }

    /// Molecular weight, kg/kmol.
    #[must_use]
    pub fn mw(self) -> f64 {
        match self {
            Component::N2 => 28.01,
            Component::Co2 => 44.01,
            Component::C1 => 16.04,
            Component::C2 => 30.07,
            Component::C3 => 44.10,
            Component::IC4 => 58.12,
            Component::NC4 => 58.12,
        }
    }

    /// Saturated liquid density, kg/m³ (used for liquid molar volume in
    /// vessel level calculations).
    #[must_use]
    pub fn liquid_density(self) -> f64 {
        match self {
            Component::N2 => 807.0,
            Component::Co2 => 1101.0,
            Component::C1 => 422.0,
            Component::C2 => 544.0,
            Component::C3 => 582.0,
            Component::IC4 => 563.0,
            Component::NC4 => 601.0,
        }
    }

    /// Liquid molar volume, m³/kmol.
    #[must_use]
    pub fn liquid_molar_volume(self) -> f64 {
        self.mw() / self.liquid_density()
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Component::N2 => "N2",
            Component::Co2 => "CO2",
            Component::C1 => "C1",
            Component::C2 => "C2",
            Component::C3 => "C3",
            Component::IC4 => "iC4",
            Component::NC4 => "nC4",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_roundtrip() {
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn volatility_ordering_is_physical() {
        // Critical temperature increases with molecular size for the
        // hydrocarbon series.
        assert!(Component::C1.tc_k() < Component::C2.tc_k());
        assert!(Component::C2.tc_k() < Component::C3.tc_k());
        assert!(Component::C3.tc_k() < Component::IC4.tc_k());
        assert!(Component::IC4.tc_k() < Component::NC4.tc_k());
    }

    #[test]
    fn molar_volumes_are_sane() {
        for c in Component::ALL {
            let v = c.liquid_molar_volume();
            assert!(v > 0.02 && v < 0.15, "{c}: {v}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Component::IC4.to_string(), "iC4");
        assert_eq!(Component::Co2.to_string(), "CO2");
    }
}
