//! Flash geometry: the channel/package/die/plane/block/page hierarchy and
//! the packed physical-page-number layout.

use std::fmt;

use iceclave_types::{ByteSize, Ppn, PAGE_SIZE};

/// The shape of the flash array (§2.1 / Table 3).
///
/// # Examples
///
/// ```
/// use iceclave_flash::FlashGeometry;
///
/// let g = FlashGeometry::table3();
/// assert_eq!(g.capacity().as_gib_f64(), 1024.0); // 1 TiB
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct FlashGeometry {
    /// Number of independent channels.
    pub channels: u32,
    /// Flash packages (chips) sharing each channel.
    pub chips_per_channel: u32,
    /// Dies per package.
    pub dies_per_chip: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block.
    pub pages_per_block: u32,
}

/// Fully decomposed physical flash address.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct FlashAddr {
    /// Channel index.
    pub channel: u32,
    /// Chip (package) index within the channel.
    pub chip: u32,
    /// Die index within the chip.
    pub die: u32,
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

/// Address of one erase block (a [`FlashAddr`] without the page).
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct BlockAddr {
    /// Channel index.
    pub channel: u32,
    /// Chip (package) index within the channel.
    pub chip: u32,
    /// Die index within the chip.
    pub die: u32,
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
}

impl FlashGeometry {
    /// The configuration of Table 3: 8 channels, 4 chips/channel,
    /// 4 dies/chip, 2 planes/die, 2048 blocks/plane, 512 pages/block,
    /// 4 KiB pages — a 1 TiB device.
    pub fn table3() -> Self {
        FlashGeometry {
            channels: 8,
            chips_per_channel: 4,
            dies_per_chip: 4,
            planes_per_die: 2,
            blocks_per_plane: 2048,
            pages_per_block: 512,
        }
    }

    /// A miniature geometry for fast unit tests (two channels, a few
    /// blocks).
    pub fn tiny() -> Self {
        FlashGeometry {
            channels: 2,
            chips_per_channel: 1,
            dies_per_chip: 2,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 16,
        }
    }

    /// Same geometry with a different channel count (used by the
    /// bandwidth sweeps of Figures 12/13).
    pub fn with_channels(mut self, channels: u32) -> Self {
        self.channels = channels;
        self
    }

    /// Total number of dies in the device.
    pub fn total_dies(&self) -> u64 {
        u64::from(self.channels) * u64::from(self.chips_per_channel) * u64::from(self.dies_per_chip)
    }

    /// Total number of planes in the device.
    pub fn total_planes(&self) -> u64 {
        self.total_dies() * u64::from(self.planes_per_die)
    }

    /// Total number of erase blocks in the device.
    pub fn total_blocks(&self) -> u64 {
        self.total_planes() * u64::from(self.blocks_per_plane)
    }

    /// Total number of physical pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * u64::from(self.pages_per_block)
    }

    /// Raw device capacity.
    pub fn capacity(&self) -> ByteSize {
        ByteSize::from_bytes(self.total_pages() * PAGE_SIZE)
    }

    /// Splits `v` into `(v / d, v % d)`, reducing to shift/mask for
    /// power-of-two divisors. Address decomposition runs on the
    /// simulator's per-page hot path, and every stock geometry is
    /// power-of-two sized, so this turns the divide chains of
    /// [`FlashGeometry::unpack`] into a handful of bit ops.
    #[inline]
    fn split(v: u64, d: u32) -> (u64, u64) {
        let d = u64::from(d);
        if d.is_power_of_two() {
            (v >> d.trailing_zeros(), v & (d - 1))
        } else {
            (v / d, v % d)
        }
    }

    /// Flat index of a die in `0..total_dies()`, ordering channels
    /// outermost.
    pub fn die_index(&self, channel: u32, chip: u32, die: u32) -> u64 {
        (u64::from(channel) * u64::from(self.chips_per_channel) + u64::from(chip))
            * u64::from(self.dies_per_chip)
            + u64::from(die)
    }

    /// Packs a decomposed address into a [`Ppn`].
    ///
    /// Layout (innermost to outermost): page, block, plane, die, chip,
    /// channel. The FTL achieves channel striping by rotating the die it
    /// allocates from, not by the packing itself.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any component is out of range.
    pub fn pack(&self, addr: FlashAddr) -> Ppn {
        debug_assert!(self.contains(addr), "address out of range: {addr:?}");
        let die_idx = self.die_index(addr.channel, addr.chip, addr.die);
        let plane_idx = die_idx * u64::from(self.planes_per_die) + u64::from(addr.plane);
        let block_idx = plane_idx * u64::from(self.blocks_per_plane) + u64::from(addr.block);
        Ppn::new(block_idx * u64::from(self.pages_per_block) + u64::from(addr.page))
    }

    /// Unpacks a [`Ppn`] into its decomposed address.
    ///
    /// # Panics
    ///
    /// Panics if the PPN is beyond the device capacity.
    pub fn unpack(&self, ppn: Ppn) -> FlashAddr {
        assert!(
            ppn.raw() < self.total_pages(),
            "{ppn} out of range for geometry with {} pages",
            self.total_pages()
        );
        let raw = ppn.raw();
        let (block_idx, page) = Self::split(raw, self.pages_per_block);
        let (plane_idx, block) = Self::split(block_idx, self.blocks_per_plane);
        let (die_idx, plane) = Self::split(plane_idx, self.planes_per_die);
        let (chip_idx, die) = Self::split(die_idx, self.dies_per_chip);
        let (channel, chip) = Self::split(chip_idx, self.chips_per_channel);
        let (page, block, plane) = (page as u32, block as u32, plane as u32);
        let (die, chip, channel) = (die as u32, chip as u32, channel as u32);
        FlashAddr {
            channel,
            chip,
            die,
            plane,
            block,
            page,
        }
    }

    /// The flat block index (see [`FlashGeometry::block_index`]) and
    /// in-block page of `ppn`. PPNs are block-major, so this is one
    /// division and one remainder instead of a full
    /// [`FlashGeometry::unpack`].
    #[inline]
    pub fn block_page(&self, ppn: Ppn) -> (u64, u32) {
        debug_assert!(ppn.raw() < self.total_pages(), "{ppn} out of range");
        let (block, page) = Self::split(ppn.raw(), self.pages_per_block);
        (block, page as u32)
    }

    /// True if `addr` addresses a page inside this geometry.
    pub fn contains(&self, addr: FlashAddr) -> bool {
        addr.channel < self.channels
            && addr.chip < self.chips_per_channel
            && addr.die < self.dies_per_chip
            && addr.plane < self.planes_per_die
            && addr.block < self.blocks_per_plane
            && addr.page < self.pages_per_block
    }

    /// Flat index of a block in `0..total_blocks()`.
    pub fn block_index(&self, block: BlockAddr) -> u64 {
        let die_idx = self.die_index(block.channel, block.chip, block.die);
        (die_idx * u64::from(self.planes_per_die) + u64::from(block.plane))
            * u64::from(self.blocks_per_plane)
            + u64::from(block.block)
    }

    /// Inverse of [`FlashGeometry::block_index`].
    pub fn block_from_index(&self, index: u64) -> BlockAddr {
        let (plane_idx, block) = Self::split(index, self.blocks_per_plane);
        let (die_idx, plane) = Self::split(plane_idx, self.planes_per_die);
        let (chip_idx, die) = Self::split(die_idx, self.dies_per_chip);
        let (channel, chip) = Self::split(chip_idx, self.chips_per_channel);
        let (block, plane) = (block as u32, plane as u32);
        let (die, chip, channel) = (die as u32, chip as u32, channel as u32);
        BlockAddr {
            channel,
            chip,
            die,
            plane,
            block,
        }
    }
}

impl FlashAddr {
    /// The erase block containing this page.
    pub fn block_addr(&self) -> BlockAddr {
        BlockAddr {
            channel: self.channel,
            chip: self.chip,
            die: self.die,
            plane: self.plane,
            block: self.block,
        }
    }
}

impl BlockAddr {
    /// The page at `page` within this block.
    pub fn page(&self, page: u32) -> FlashAddr {
        FlashAddr {
            channel: self.channel,
            chip: self.chip,
            die: self.die,
            plane: self.plane,
            block: self.block,
            page,
        }
    }
}

impl fmt::Display for FlashAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/chip{}/die{}/pl{}/blk{}/pg{}",
            self.channel, self.chip, self.die, self.plane, self.block, self.page
        )
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/chip{}/die{}/pl{}/blk{}",
            self.channel, self.chip, self.die, self.plane, self.block
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn table3_capacity_is_one_tib() {
        let g = FlashGeometry::table3();
        assert_eq!(g.total_dies(), 128);
        assert_eq!(g.total_pages(), 268_435_456);
        assert_eq!(g.capacity(), ByteSize::from_gib(1024));
    }

    #[test]
    fn pack_unpack_round_trip() {
        let g = FlashGeometry::tiny();
        for raw in 0..g.total_pages() {
            let ppn = Ppn::new(raw);
            let addr = g.unpack(ppn);
            assert!(g.contains(addr));
            assert_eq!(g.pack(addr), ppn, "addr {addr}");
        }
    }

    #[test]
    fn block_page_matches_unpack() {
        let odd = FlashGeometry {
            pages_per_block: 12,
            ..FlashGeometry::tiny()
        };
        for g in [FlashGeometry::tiny(), odd] {
            for raw in 0..g.total_pages() {
                let addr = g.unpack(Ppn::new(raw));
                let want = (g.block_index(addr.block_addr()), addr.page);
                assert_eq!(g.block_page(Ppn::new(raw)), want, "ppn {raw}");
            }
        }
    }

    #[test]
    fn block_index_round_trip() {
        let g = FlashGeometry::tiny();
        for idx in 0..g.total_blocks() {
            let b = g.block_from_index(idx);
            assert_eq!(g.block_index(b), idx);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unpack_out_of_range_panics() {
        let g = FlashGeometry::tiny();
        let _ = g.unpack(Ppn::new(g.total_pages()));
    }

    #[test]
    fn block_and_page_navigation() {
        let g = FlashGeometry::tiny();
        let addr = g.unpack(Ppn::new(17));
        let block = addr.block_addr();
        assert_eq!(block.page(addr.page), addr);
    }

    #[test]
    fn with_channels_scales_capacity() {
        let g = FlashGeometry::table3().with_channels(16);
        assert_eq!(g.capacity(), ByteSize::from_gib(2048));
    }
}
