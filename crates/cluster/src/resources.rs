//! Compute resource quantities.
//!
//! Kubernetes expresses CPU in cores (with the `m` suffix for millicores) and
//! memory in bytes (with binary suffixes such as `Mi`/`Gi`). The default
//! scheduler's scoring functions operate on requested vs. allocatable amounts
//! of these two resources, so that is what we model.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A bundle of requested or allocatable compute resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Resources {
    /// CPU in millicores (1000 = one core).
    pub cpu_millis: u64,
    /// Memory in bytes.
    pub memory_bytes: u64,
}

/// Errors from parsing resource quantity strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseResourceError(pub String);

impl fmt::Display for ParseResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid resource quantity: {}", self.0)
    }
}

impl std::error::Error for ParseResourceError {}

impl Resources {
    /// No resources.
    pub const ZERO: Resources = Resources {
        cpu_millis: 0,
        memory_bytes: 0,
    };

    /// Construct from explicit quantities.
    pub const fn new(cpu_millis: u64, memory_bytes: u64) -> Self {
        Resources {
            cpu_millis,
            memory_bytes,
        }
    }

    /// Construct from whole cores and mebibytes.
    pub const fn from_cores_and_mib(cores: u64, mib: u64) -> Self {
        Resources {
            cpu_millis: cores * 1000,
            memory_bytes: mib * 1024 * 1024,
        }
    }

    /// Construct from whole cores and gibibytes.
    pub const fn from_cores_and_gib(cores: u64, gib: u64) -> Self {
        Resources {
            cpu_millis: cores * 1000,
            memory_bytes: gib * 1024 * 1024 * 1024,
        }
    }

    /// CPU expressed in cores.
    pub fn cpu_cores(&self) -> f64 {
        self.cpu_millis as f64 / 1000.0
    }

    /// Memory expressed in mebibytes.
    pub fn memory_mib(&self) -> f64 {
        self.memory_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Memory expressed in gibibytes.
    pub fn memory_gib(&self) -> f64 {
        self.memory_bytes as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// True when both components of `self` fit inside `capacity`. Both
    /// compares are always evaluated (`&`, not `&&`) so that scans over many
    /// nodes stay branch-free.
    pub fn fits_within(&self, capacity: &Resources) -> bool {
        (self.cpu_millis <= capacity.cpu_millis) & (self.memory_bytes <= capacity.memory_bytes)
    }

    /// Saturating subtraction per component.
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis.saturating_sub(other.cpu_millis),
            memory_bytes: self.memory_bytes.saturating_sub(other.memory_bytes),
        }
    }

    /// Checked addition per component.
    pub fn checked_add(&self, other: &Resources) -> Option<Resources> {
        Some(Resources {
            cpu_millis: self.cpu_millis.checked_add(other.cpu_millis)?,
            memory_bytes: self.memory_bytes.checked_add(other.memory_bytes)?,
        })
    }

    /// Fraction of `capacity` used by `self`, per component, in `[0, 1]`
    /// (component-wise; 1.0 when the capacity component is zero and the
    /// request is non-zero).
    pub fn utilization_of(&self, capacity: &Resources) -> (f64, f64) {
        let frac = |used: u64, cap: u64| -> f64 {
            if cap == 0 {
                if used == 0 {
                    0.0
                } else {
                    1.0
                }
            } else {
                (used as f64 / cap as f64).clamp(0.0, 1.0)
            }
        };
        (
            frac(self.cpu_millis, capacity.cpu_millis),
            frac(self.memory_bytes, capacity.memory_bytes),
        )
    }

    /// Parse a CPU quantity: `"2"` (cores), `"500m"` (millicores), `"1.5"`.
    pub fn parse_cpu(s: &str) -> Result<u64, ParseResourceError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseResourceError(s.to_string()));
        }
        if let Some(milli) = s.strip_suffix('m') {
            milli
                .parse::<u64>()
                .map_err(|_| ParseResourceError(s.to_string()))
        } else {
            let cores: f64 = s.parse().map_err(|_| ParseResourceError(s.to_string()))?;
            if cores < 0.0 || !cores.is_finite() {
                return Err(ParseResourceError(s.to_string()));
            }
            Ok((cores * 1000.0).round() as u64)
        }
    }

    /// Parse a memory quantity: `"512Mi"`, `"8Gi"`, `"1024Ki"`, `"100M"`, raw bytes.
    pub fn parse_memory(s: &str) -> Result<u64, ParseResourceError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseResourceError(s.to_string()));
        }
        let (digits, multiplier): (&str, f64) = if let Some(d) = s.strip_suffix("Ki") {
            (d, 1024.0)
        } else if let Some(d) = s.strip_suffix("Mi") {
            (d, 1024.0 * 1024.0)
        } else if let Some(d) = s.strip_suffix("Gi") {
            (d, 1024.0 * 1024.0 * 1024.0)
        } else if let Some(d) = s.strip_suffix("Ti") {
            (d, 1024.0f64.powi(4))
        } else if let Some(d) = s.strip_suffix('K') {
            (d, 1e3)
        } else if let Some(d) = s.strip_suffix('M') {
            (d, 1e6)
        } else if let Some(d) = s.strip_suffix('G') {
            (d, 1e9)
        } else {
            (s, 1.0)
        };
        let value: f64 = digits
            .trim()
            .parse()
            .map_err(|_| ParseResourceError(s.to_string()))?;
        if value < 0.0 || !value.is_finite() {
            return Err(ParseResourceError(s.to_string()));
        }
        Ok((value * multiplier).round() as u64)
    }

    /// Parse a `(cpu, memory)` pair, e.g. `("500m", "2Gi")`.
    pub fn parse(cpu: &str, memory: &str) -> Result<Resources, ParseResourceError> {
        Ok(Resources {
            cpu_millis: Self::parse_cpu(cpu)?,
            memory_bytes: Self::parse_memory(memory)?,
        })
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis + rhs.cpu_millis,
            memory_bytes: self.memory_bytes + rhs.memory_bytes,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        self.cpu_millis += rhs.cpu_millis;
        self.memory_bytes += rhs.memory_bytes;
    }
}

impl Sub for Resources {
    type Output = Resources;
    fn sub(self, rhs: Resources) -> Resources {
        self.saturating_sub(&rhs)
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = self.saturating_sub(&rhs);
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu={}m, mem={:.0}Mi",
            self.cpu_millis,
            self.memory_mib()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let r = Resources::from_cores_and_gib(6, 8);
        assert_eq!(r.cpu_millis, 6000);
        assert_eq!(r.cpu_cores(), 6.0);
        assert_eq!(r.memory_gib(), 8.0);
        assert_eq!(Resources::from_cores_and_mib(1, 512).memory_mib(), 512.0);
        assert_eq!(Resources::ZERO, Resources::default());
    }

    #[test]
    fn fits_within_checks_both_components() {
        let cap = Resources::from_cores_and_gib(6, 8);
        assert!(Resources::from_cores_and_gib(6, 8).fits_within(&cap));
        assert!(Resources::from_cores_and_gib(1, 1).fits_within(&cap));
        assert!(!Resources::from_cores_and_gib(7, 1).fits_within(&cap));
        assert!(!Resources::from_cores_and_gib(1, 9).fits_within(&cap));
        assert!(Resources::ZERO.fits_within(&Resources::ZERO));
    }

    #[test]
    fn arithmetic_saturates() {
        let a = Resources::new(1000, 100);
        let b = Resources::new(400, 150);
        assert_eq!(a + b, Resources::new(1400, 250));
        assert_eq!(a - b, Resources::new(600, 0));
        let mut c = a;
        c += b;
        c -= Resources::new(10_000, 10_000);
        assert_eq!(c, Resources::ZERO);
        assert_eq!(a.checked_add(&b), Some(Resources::new(1400, 250)));
        assert_eq!(
            Resources::new(u64::MAX, 0).checked_add(&Resources::new(1, 0)),
            None
        );
    }

    #[test]
    fn utilization_fractions() {
        let cap = Resources::new(1000, 1000);
        let used = Resources::new(250, 500);
        assert_eq!(used.utilization_of(&cap), (0.25, 0.5));
        assert_eq!(Resources::ZERO.utilization_of(&Resources::ZERO), (0.0, 0.0));
        assert_eq!(
            Resources::new(5, 5).utilization_of(&Resources::ZERO),
            (1.0, 1.0)
        );
        // Over-commit clamps to 1.
        assert_eq!(Resources::new(2000, 0).utilization_of(&cap).0, 1.0);
    }

    #[test]
    fn parse_cpu_quantities() {
        assert_eq!(Resources::parse_cpu("2").unwrap(), 2000);
        assert_eq!(Resources::parse_cpu("500m").unwrap(), 500);
        assert_eq!(Resources::parse_cpu("1.5").unwrap(), 1500);
        assert_eq!(Resources::parse_cpu(" 250m ").unwrap(), 250);
        assert!(Resources::parse_cpu("").is_err());
        assert!(Resources::parse_cpu("abc").is_err());
        assert!(Resources::parse_cpu("-1").is_err());
    }

    #[test]
    fn parse_memory_quantities() {
        assert_eq!(Resources::parse_memory("1024").unwrap(), 1024);
        assert_eq!(Resources::parse_memory("1Ki").unwrap(), 1024);
        assert_eq!(Resources::parse_memory("512Mi").unwrap(), 512 * 1024 * 1024);
        assert_eq!(
            Resources::parse_memory("8Gi").unwrap(),
            8 * 1024 * 1024 * 1024
        );
        assert_eq!(Resources::parse_memory("1Ti").unwrap(), 1024u64.pow(4));
        assert_eq!(Resources::parse_memory("100M").unwrap(), 100_000_000);
        assert_eq!(Resources::parse_memory("2G").unwrap(), 2_000_000_000);
        assert_eq!(Resources::parse_memory("3K").unwrap(), 3_000);
        assert!(Resources::parse_memory("").is_err());
        assert!(Resources::parse_memory("12Q").is_err());
        assert!(Resources::parse_memory("-5Mi").is_err());
    }

    #[test]
    fn parse_pair() {
        let r = Resources::parse("500m", "2Gi").unwrap();
        assert_eq!(r.cpu_millis, 500);
        assert_eq!(r.memory_gib(), 2.0);
        assert!(Resources::parse("x", "2Gi").is_err());
        assert!(Resources::parse("1", "y").is_err());
    }

    #[test]
    fn display_is_compact() {
        let r = Resources::from_cores_and_mib(2, 256);
        assert_eq!(format!("{r}"), "cpu=2000m, mem=256Mi");
        let e = ParseResourceError("zzz".into());
        assert!(format!("{e}").contains("zzz"));
    }
}
