use std::fmt;

/// A device identified by its index within a [`DeviceSpace`] of `2^n` devices.
///
/// Bit `d_1` (paper notation) is the most significant bit of the index: for
/// `n = 3`, device 5 has `(d_1, d_2, d_3) = (1, 0, 1)`. This matches the
/// paper's §6.3 example where GPUs 0–3 form one node and GPUs 4–7 another, and
/// group indicator `(d_1)` yields inter-node groups `(0,4), (1,5), (2,6), (3,7)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub usize);

impl DeviceId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

impl From<usize> for DeviceId {
    fn from(index: usize) -> Self {
        DeviceId(index)
    }
}

/// The space of `2^n` devices addressed by `n`-bit device IDs.
///
/// # Example
///
/// ```
/// use primepar_topology::DeviceSpace;
///
/// let s = DeviceSpace::new(3);
/// assert_eq!(s.num_devices(), 8);
/// assert_eq!(s.bit(5.into(), 1), 1); // d_1 of device 5 (binary 101)
/// assert_eq!(s.bit(5.into(), 2), 0);
/// assert_eq!(s.bit(5.into(), 3), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceSpace {
    n_bits: usize,
}

impl DeviceSpace {
    /// Creates a space of `2^n_bits` devices.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits > 30` (absurdly large spaces).
    pub fn new(n_bits: usize) -> Self {
        assert!(
            n_bits <= 30,
            "device space of 2^{n_bits} devices is not supported"
        );
        DeviceSpace { n_bits }
    }

    /// Creates the space for a device count that must be a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices` is not a power of two or is zero.
    pub fn for_devices(num_devices: usize) -> Self {
        assert!(
            num_devices.is_power_of_two(),
            "PrimePar partitions over 2^n devices, got {num_devices}"
        );
        DeviceSpace::new(num_devices.trailing_zeros() as usize)
    }

    /// Number of device-ID bits `n`.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Number of devices `2^n`.
    pub fn num_devices(&self) -> usize {
        1 << self.n_bits
    }

    /// The value of bit `d_pos` (1-based, `d_1` most significant) of `device`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is zero or exceeds `n_bits`.
    pub fn bit(&self, device: DeviceId, pos: usize) -> usize {
        assert!(
            pos >= 1 && pos <= self.n_bits,
            "bit position {pos} out of 1..={}",
            self.n_bits
        );
        (device.0 >> (self.n_bits - pos)) & 1
    }

    /// Iterates over all devices in index order.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> {
        (0..self.num_devices()).map(DeviceId)
    }

    /// The device-index bits `indicator` varies: `d_p` is index bit `n − p`.
    ///
    /// # Panics
    ///
    /// Panics if any indicator position exceeds `n_bits`.
    fn index_mask(&self, indicator: GroupIndicator) -> usize {
        assert!(
            indicator.mask >> self.n_bits == 0,
            "indicator {indicator} out of range for {} bits",
            self.n_bits
        );
        // Position p sits at mask bit p − 1; reversed, at bit 32 − p.
        (u64::from(indicator.mask.reverse_bits()) >> (u32::BITS as usize - self.n_bits)) as usize
    }

    /// The smallest member of each group `indicator` induces, ascending: the
    /// devices whose indicator bits are all 0.
    ///
    /// # Panics
    ///
    /// Panics if any indicator position is out of range.
    pub fn group_leaders(&self, indicator: GroupIndicator) -> impl Iterator<Item = DeviceId> {
        let mask = self.index_mask(indicator);
        (0..self.num_devices())
            .filter(move |d| d & mask == 0)
            .map(DeviceId)
    }

    /// The members of the group under `indicator` that contains `device`,
    /// ascending, enumerated from the mask without building the group.
    ///
    /// # Panics
    ///
    /// Panics if any indicator position is out of range.
    pub fn group_members(
        &self,
        indicator: GroupIndicator,
        device: DeviceId,
    ) -> impl Iterator<Item = DeviceId> {
        let mask = self.index_mask(indicator);
        let base = device.0 & !mask;
        // The subsets of `mask` in ascending order: `(sub − mask) & mask` is
        // the next one, and wraps to 0 after `mask` itself.
        let mut next = Some(0usize);
        std::iter::from_fn(move || {
            let sub = next?;
            let after = sub.wrapping_sub(mask) & mask;
            next = (after != 0).then_some(after);
            Some(DeviceId(base | sub))
        })
    }

    /// Partitions all devices into groups per the given indicator: devices that
    /// agree on every bit *outside* the indicator share a group; the indicator
    /// bits vary within a group (paper §4.1, Fig. 5).
    ///
    /// Groups are returned in ascending order of their smallest member, and
    /// members within a group ascend by index.
    ///
    /// # Panics
    ///
    /// Panics if any indicator position is out of range.
    pub fn groups(&self, indicator: GroupIndicator) -> Vec<Vec<DeviceId>> {
        self.group_leaders(indicator)
            .map(|leader| self.group_members(indicator, leader).collect())
            .collect()
    }

    /// The group (under `indicator`) containing `device`.
    pub fn group_of(&self, indicator: GroupIndicator, device: DeviceId) -> Vec<DeviceId> {
        self.group_members(indicator, device).collect()
    }
}

/// A subsequence of device-ID bit positions (1-based) along which a
/// communication group varies — the paper's *group indicator* (§4.1) — held
/// as a bit mask: position `p` is bit `p − 1`.
///
/// An empty indicator means "no grouping": every device is its own group and
/// no communication is induced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GroupIndicator {
    mask: u32,
}

impl GroupIndicator {
    /// The largest position a mask holds.
    pub const MAX_POSITION: usize = u32::BITS as usize;

    /// Creates an indicator from 1-based bit positions (`d_1` is position 1),
    /// in any order; repeats are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a position is 0 or exceeds [`GroupIndicator::MAX_POSITION`].
    pub fn new(positions: impl IntoIterator<Item = usize>) -> Self {
        let mut indicator = GroupIndicator::empty();
        for pos in positions {
            indicator.insert(pos);
        }
        indicator
    }

    /// An indicator selecting no bits.
    pub fn empty() -> Self {
        GroupIndicator { mask: 0 }
    }

    /// Selects position `pos` as well.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is 0 or exceeds [`GroupIndicator::MAX_POSITION`].
    pub fn insert(&mut self, pos: usize) {
        assert!(
            (1..=Self::MAX_POSITION).contains(&pos),
            "group indicator position {pos} out of 1..={}",
            Self::MAX_POSITION
        );
        self.mask |= 1 << (pos - 1);
    }

    /// The selected bit positions, ascending.
    pub fn positions(self) -> impl Iterator<Item = usize> {
        let mut rest = self.mask;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let pos = rest.trailing_zeros() as usize + 1;
                rest &= rest - 1;
                pos
            })
        })
    }

    /// `true` when no bits are selected.
    pub fn is_empty(self) -> bool {
        self.mask == 0
    }

    /// Number of selected bits; groups have `2^len()` members.
    pub fn len(self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Size of each group this indicator induces.
    pub fn group_size(self) -> usize {
        1 << self.len()
    }
}

impl fmt::Display for GroupIndicator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.positions().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "d{p}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_indicators;

    #[test]
    fn bit_extraction_msb_first() {
        let s = DeviceSpace::new(3);
        // Device 6 = 110
        assert_eq!(s.bit(DeviceId(6), 1), 1);
        assert_eq!(s.bit(DeviceId(6), 2), 1);
        assert_eq!(s.bit(DeviceId(6), 3), 0);
    }

    #[test]
    fn for_devices_requires_power_of_two() {
        assert_eq!(DeviceSpace::for_devices(16).n_bits(), 4);
    }

    #[test]
    #[should_panic(expected = "2^n devices")]
    fn for_devices_rejects_non_power() {
        DeviceSpace::for_devices(12);
    }

    #[test]
    fn paper_fig5_grouping_d1_d3() {
        // 8 devices, indicator (d1, d3): groups vary in bits 1 and 3.
        let s = DeviceSpace::new(3);
        let g = s.groups(GroupIndicator::new(vec![1, 3]));
        assert_eq!(g.len(), 2);
        let flat: Vec<Vec<usize>> = g
            .iter()
            .map(|grp| grp.iter().map(|d| d.0).collect())
            .collect();
        // Group with d2 = 0: devices {000, 001, 100, 101} = {0,1,4,5}
        assert_eq!(flat[0], vec![0, 1, 4, 5]);
        // Group with d2 = 1: {010, 011, 110, 111} = {2,3,6,7}
        assert_eq!(flat[1], vec![2, 3, 6, 7]);
    }

    #[test]
    fn paper_section63_grouping_d1() {
        // Ablation §6.3: indicator (d1) on 8 GPUs → (0,4), (1,5), (2,6), (3,7).
        let s = DeviceSpace::new(3);
        let g = s.groups(GroupIndicator::new(vec![1]));
        let flat: Vec<Vec<usize>> = g
            .iter()
            .map(|grp| grp.iter().map(|d| d.0).collect())
            .collect();
        assert_eq!(flat, vec![vec![0, 4], vec![1, 5], vec![2, 6], vec![3, 7]]);
    }

    #[test]
    fn paper_section63_grouping_d2_d3() {
        // Ablation §6.3: indicator (d2, d3) → intra-node groups (0..3), (4..7).
        let s = DeviceSpace::new(3);
        let g = s.groups(GroupIndicator::new(vec![2, 3]));
        let flat: Vec<Vec<usize>> = g
            .iter()
            .map(|grp| grp.iter().map(|d| d.0).collect())
            .collect();
        assert_eq!(flat, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
    }

    #[test]
    fn empty_indicator_singleton_groups() {
        let s = DeviceSpace::new(2);
        let g = s.groups(GroupIndicator::empty());
        assert_eq!(g.len(), 4);
        assert!(g.iter().all(|grp| grp.len() == 1));
    }

    #[test]
    fn full_indicator_single_group() {
        let s = DeviceSpace::new(2);
        let g = s.groups(GroupIndicator::new(vec![1, 2]));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].len(), 4);
    }

    #[test]
    fn groups_partition_the_space() {
        let s = DeviceSpace::new(4);
        for ind in [
            GroupIndicator::new(vec![1]),
            GroupIndicator::new(vec![2, 4]),
            GroupIndicator::new(vec![1, 3, 4]),
        ] {
            let groups = s.groups(ind);
            let mut all: Vec<usize> = groups.iter().flatten().map(|d| d.index()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..16).collect::<Vec<_>>());
            for grp in &groups {
                assert_eq!(grp.len(), ind.group_size());
            }
        }
    }

    #[test]
    fn groups_match_the_bitwise_definition() {
        // Devices share a group exactly when they agree on every bit outside
        // the indicator; groups ascend by smallest member, members by index.
        for n in 0..=5 {
            let s = DeviceSpace::new(n);
            for ind in all_indicators(s) {
                let outside: usize = (1..=n)
                    .filter(|&p| !ind.positions().any(|q| q == p))
                    .map(|p| 1 << (n - p))
                    .sum();
                let mut expect: Vec<Vec<DeviceId>> = Vec::new();
                for d in s.devices() {
                    match expect
                        .iter_mut()
                        .find(|g| g[0].0 & outside == d.0 & outside)
                    {
                        Some(g) => g.push(d),
                        None => expect.push(vec![d]),
                    }
                }
                assert_eq!(s.groups(ind), expect, "{ind} on {n} bits");
            }
        }
    }

    #[test]
    fn group_of_is_consistent_with_groups() {
        let s = DeviceSpace::new(3);
        let ind = GroupIndicator::new(vec![1, 3]);
        for d in s.devices() {
            let g = s.group_of(ind, d);
            assert!(g.contains(&d));
            let groups = s.groups(ind);
            let containing = groups.iter().find(|grp| grp.contains(&d)).unwrap();
            assert_eq!(&g, containing);
        }
    }

    #[test]
    fn indicator_sorts_and_dedups() {
        let ind = GroupIndicator::new(vec![3, 1, 3]);
        assert_eq!(ind.positions().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(ind.to_string(), "(d1,d3)");
        assert_eq!(GroupIndicator::new([32]).to_string(), "(d32)");
    }

    #[test]
    #[should_panic(expected = "position 0 out of 1..=32")]
    fn indicator_rejects_position_zero() {
        GroupIndicator::new(vec![0]);
    }

    #[test]
    #[should_panic(expected = "position 33 out of 1..=32")]
    fn indicator_rejects_positions_past_the_mask() {
        GroupIndicator::new([1, 33]);
    }

    #[test]
    #[should_panic(expected = "out of range for 2 bits")]
    fn groups_reject_positions_past_the_space() {
        DeviceSpace::new(2).groups(GroupIndicator::new([3]));
    }
}
