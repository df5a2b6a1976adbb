//! The TZASC-style memory map: region registers and permission checks.

use std::error::Error;
use std::fmt;

use iceclave_types::{ByteSize, PhysAddr};

use crate::attributes::{AccessType, PageAttributes, Region, World};

/// Maximum number of region registers, matching the ARM CoreLink
/// TZC-400's nine (one background + eight programmable) regions.
pub const MAX_REGIONS: usize = 9;

/// A protection fault raised by [`MemoryMap::check`].
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct ProtectionFault {
    /// The world that attempted the access.
    pub world: World,
    /// The faulting address.
    pub addr: PhysAddr,
    /// The attempted access type.
    pub access: AccessType,
    /// The region the address belongs to.
    pub region: Region,
}

impl fmt::Display for ProtectionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:?} access to {} denied ({} region)",
            self.world, self.access, self.addr, self.region
        )
    }
}

impl Error for ProtectionFault {}

/// Errors configuring the memory map.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum RegionError {
    /// All region registers are in use.
    TooManyRegions,
    /// The new range overlaps an existing region register.
    Overlap,
    /// Zero-sized region.
    Empty,
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegionError::TooManyRegions => "all TZASC region registers are in use",
            RegionError::Overlap => "region overlaps an existing register",
            RegionError::Empty => "region must not be empty",
        };
        f.write_str(s)
    }
}

impl Error for RegionError {}

#[derive(Copy, Clone, Debug)]
struct RegionRegister {
    start: u64,
    end: u64, // exclusive
    region: Region,
}

/// The physical-memory protection map.
///
/// Addresses not covered by any region register fall into the background
/// region, which is `Normal` (matching the TZC-400's programmable
/// background behaviour, with IceClave defaulting open and carving out
/// secure/protected windows).
///
/// # Examples
///
/// See the crate-level example.
#[derive(Clone, Debug, Default)]
pub struct MemoryMap {
    regions: Vec<RegionRegister>,
}

impl MemoryMap {
    /// An empty map: everything is background `Normal`.
    pub fn new() -> Self {
        MemoryMap {
            regions: Vec::new(),
        }
    }

    /// Programs a region register covering `[start, start+size)`.
    ///
    /// # Errors
    ///
    /// [`RegionError::TooManyRegions`] when all [`MAX_REGIONS`] are
    /// used (the background region counts as one),
    /// [`RegionError::Overlap`] when ranges collide, and
    /// [`RegionError::Empty`] for zero-size regions.
    pub fn define(
        &mut self,
        start: PhysAddr,
        size: ByteSize,
        region: Region,
    ) -> Result<(), RegionError> {
        if size.is_zero() {
            return Err(RegionError::Empty);
        }
        if self.regions.len() + 1 >= MAX_REGIONS {
            return Err(RegionError::TooManyRegions);
        }
        let new_start = start.raw();
        let new_end = new_start + size.as_bytes();
        for r in &self.regions {
            if new_start < r.end && r.start < new_end {
                return Err(RegionError::Overlap);
            }
        }
        self.regions.push(RegionRegister {
            start: new_start,
            end: new_end,
            region,
        });
        Ok(())
    }

    /// The region an address belongs to.
    pub fn region_of(&self, addr: PhysAddr) -> Region {
        let a = addr.raw();
        self.regions
            .iter()
            .find(|r| r.start <= a && a < r.end)
            .map_or(Region::Normal, |r| r.region)
    }

    /// Checks an access, returning a fault when the Figure 6 permission
    /// matrix denies it.
    ///
    /// # Errors
    ///
    /// [`ProtectionFault`] describing the denied access.
    pub fn check(
        &self,
        world: World,
        addr: PhysAddr,
        access: AccessType,
    ) -> Result<(), ProtectionFault> {
        let region = self.region_of(addr);
        if PageAttributes::for_region(region).permits(world, access) {
            Ok(())
        } else {
            Err(ProtectionFault {
                world,
                addr,
                access,
                region,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn standard_map() -> MemoryMap {
        // The layout of Figure 4: secure (FTL + runtime), protected
        // (mapping table), rest normal.
        let mut map = MemoryMap::new();
        map.define(PhysAddr::new(0), ByteSize::from_mib(64), Region::Secure)
            .unwrap();
        map.define(
            PhysAddr::new(ByteSize::from_mib(64).as_bytes()),
            ByteSize::from_mib(64),
            Region::Protected,
        )
        .unwrap();
        map
    }

    #[test]
    fn background_is_normal() {
        let map = standard_map();
        let app_addr = PhysAddr::new(ByteSize::from_mib(256).as_bytes());
        assert_eq!(map.region_of(app_addr), Region::Normal);
        assert!(map
            .check(World::Normal, app_addr, AccessType::Write)
            .is_ok());
    }

    #[test]
    fn normal_world_cannot_touch_secure() {
        let map = standard_map();
        let ftl_addr = PhysAddr::new(4096);
        let fault = map
            .check(World::Normal, ftl_addr, AccessType::Read)
            .unwrap_err();
        assert_eq!(fault.region, Region::Secure);
        assert_eq!(fault.world, World::Normal);
        assert!(map
            .check(World::Secure, ftl_addr, AccessType::Write)
            .is_ok());
    }

    #[test]
    fn protected_region_is_read_only_for_normal_world() {
        let map = standard_map();
        let table_addr = PhysAddr::new(ByteSize::from_mib(64).as_bytes() + 128);
        assert!(map
            .check(World::Normal, table_addr, AccessType::Read)
            .is_ok());
        let fault = map
            .check(World::Normal, table_addr, AccessType::Write)
            .unwrap_err();
        assert_eq!(fault.region, Region::Protected);
        assert!(map
            .check(World::Secure, table_addr, AccessType::Write)
            .is_ok());
    }

    #[test]
    fn overlapping_regions_are_rejected() {
        let mut map = standard_map();
        assert_eq!(
            map.define(PhysAddr::new(0), ByteSize::from_kib(4), Region::Normal),
            Err(RegionError::Overlap)
        );
        // Adjacent (non-overlapping) is fine.
        assert!(map
            .define(
                PhysAddr::new(ByteSize::from_mib(128).as_bytes()),
                ByteSize::from_kib(4),
                Region::Secure
            )
            .is_ok());
    }

    #[test]
    fn register_budget_is_enforced() {
        let mut map = MemoryMap::new();
        for i in 0..(MAX_REGIONS - 1) {
            map.define(
                PhysAddr::new(i as u64 * 4096),
                ByteSize::from_bytes(4096),
                Region::Secure,
            )
            .unwrap();
        }
        assert_eq!(
            map.define(
                PhysAddr::new(MAX_REGIONS as u64 * 4096),
                ByteSize::from_bytes(4096),
                Region::Secure
            ),
            Err(RegionError::TooManyRegions)
        );
    }

    #[test]
    fn empty_region_is_rejected() {
        let mut map = MemoryMap::new();
        assert_eq!(
            map.define(PhysAddr::new(0), ByteSize::ZERO, Region::Secure),
            Err(RegionError::Empty)
        );
    }

    #[test]
    fn fault_display_is_informative() {
        let map = standard_map();
        let fault = map
            .check(World::Normal, PhysAddr::new(0), AccessType::Write)
            .unwrap_err();
        let msg = fault.to_string();
        assert!(msg.contains("normal-world"));
        assert!(msg.contains("secure region"));
    }
}
