//! Chip geometry: the 32×32 core mesh and its 8×8 grid of 4×4-core
//! clusters, exactly the 1024-core / 64-cluster layout of the paper.

use crate::types::{ClusterId, CoreId};

/// Geometry of the tiled chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Mesh width in tiles (32 for the paper's chip).
    pub width: u16,
    /// Mesh height in tiles (32).
    pub height: u16,
    /// Cluster width/height in tiles (4 → 16-core clusters).
    pub cluster_side: u16,
}

impl Topology {
    /// The paper's 1024-core chip: 32×32 tiles, 64 clusters of 16 cores.
    pub fn atac_1024() -> Self {
        Topology {
            width: 32,
            height: 32,
            cluster_side: 4,
        }
    }

    /// A small chip for fast tests: 8×8 tiles, 4 clusters of 16 cores
    /// (or custom cluster side).
    ///
    /// Panics unless `cluster_side` divides `side` and the chip has at
    /// most 256 clusters, the most an 8-bit [`ClusterId`] can name.
    pub fn small(side: u16, cluster_side: u16) -> Self {
        assert!(
            side.is_multiple_of(cluster_side),
            "cluster side must divide mesh side"
        );
        let t = Topology {
            width: side,
            height: side,
            cluster_side,
        };
        assert!(
            t.clusters() <= 256,
            "{} clusters overflow the 8-bit ClusterId (at most 256)",
            t.clusters()
        );
        t
    }

    /// Total number of cores.
    #[inline]
    pub fn cores(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Number of clusters (= ONet hubs).
    #[inline]
    pub fn clusters(&self) -> usize {
        let cx = self.width / self.cluster_side;
        let cy = self.height / self.cluster_side;
        cx as usize * cy as usize
    }

    /// Cores per cluster.
    #[inline]
    pub fn cores_per_cluster(&self) -> usize {
        (self.cluster_side as usize) * (self.cluster_side as usize)
    }

    /// (x, y) tile position of a core.
    #[inline]
    pub fn xy(&self, c: CoreId) -> (u16, u16) {
        (c.0 % self.width, c.0 / self.width)
    }

    /// Core at tile (x, y).
    #[inline]
    pub fn core_at(&self, x: u16, y: u16) -> CoreId {
        debug_assert!(x < self.width && y < self.height);
        CoreId(y * self.width + x)
    }

    /// Cluster of a core.
    #[inline]
    pub fn cluster_of(&self, c: CoreId) -> ClusterId {
        let (x, y) = self.xy(c);
        let cx = x / self.cluster_side;
        let cy = y / self.cluster_side;
        let clusters_x = self.width / self.cluster_side;
        ClusterId((cy * clusters_x + cx) as u8)
    }

    /// The core that hosts a cluster's hub (its top-left tile, whose
    /// router carries the extra hub port).
    #[inline]
    pub fn hub_core(&self, cl: ClusterId) -> CoreId {
        let clusters_x = self.width / self.cluster_side;
        let cx = u16::from(cl.0) % clusters_x;
        let cy = u16::from(cl.0) / clusters_x;
        self.core_at(cx * self.cluster_side, cy * self.cluster_side)
    }

    /// All cores in a cluster, in row-major order.
    pub fn cluster_cores(&self, cl: ClusterId) -> impl Iterator<Item = CoreId> + '_ {
        let clusters_x = self.width / self.cluster_side;
        let cx = (u16::from(cl.0) % clusters_x) * self.cluster_side;
        let cy = (u16::from(cl.0) / clusters_x) * self.cluster_side;
        let side = self.cluster_side;
        (0..side).flat_map(move |dy| (0..side).map(move |dx| self.core_at(cx + dx, cy + dy)))
    }

    /// Manhattan distance in mesh hops between two cores — the metric of
    /// the Distance-i routing scheme (§IV-C).
    #[inline]
    pub fn manhattan(&self, a: CoreId, b: CoreId) -> u32 {
        let (ax, ay) = self.xy(a);
        let (bx, by) = self.xy(b);
        u32::from(ax.abs_diff(bx) + ay.abs_diff(by))
    }
}

/// The five mesh router ports (plus the optional hub port on hub tiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Toward decreasing y.
    North,
    /// Toward increasing y.
    South,
    /// Toward increasing x.
    East,
    /// Toward decreasing x.
    West,
    /// Ejection to the local core.
    Local,
    /// Ejection to the cluster hub (only present on hub tiles).
    Hub,
}

impl Port {
    /// Index for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            Port::North => 0,
            Port::South => 1,
            Port::East => 2,
            Port::West => 3,
            Port::Local => 4,
            Port::Hub => 5,
        }
    }

    /// All ports in index order.
    pub const ALL: [Port; 6] = [
        Port::North,
        Port::South,
        Port::East,
        Port::West,
        Port::Local,
        Port::Hub,
    ];
}

/// XY dimension-order routing: the next output port on the path from the
/// router at `here` to `dst` (X first, then Y), or `Local` on arrival.
#[inline]
pub fn xy_route(topo: &Topology, here: CoreId, dst: CoreId) -> Port {
    let (hx, hy) = topo.xy(here);
    let (dx, dy) = topo.xy(dst);
    if dx > hx {
        Port::East
    } else if dx < hx {
        Port::West
    } else if dy > hy {
        Port::South
    } else if dy < hy {
        Port::North
    } else {
        Port::Local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_chip_dimensions() {
        let t = Topology::atac_1024();
        assert_eq!(t.cores(), 1024);
        assert_eq!(t.clusters(), 64);
        assert_eq!(t.cores_per_cluster(), 16);
    }

    #[test]
    fn xy_roundtrip() {
        let t = Topology::atac_1024();
        for id in [0u16, 1, 31, 32, 1023] {
            let c = CoreId(id);
            let (x, y) = t.xy(c);
            assert_eq!(t.core_at(x, y), c);
        }
    }

    #[test]
    fn cluster_mapping_partitions_cores() {
        let t = Topology::atac_1024();
        let mut counts = vec![0usize; t.clusters()];
        for id in 0..t.cores() as u16 {
            counts[t.cluster_of(CoreId(id)).idx()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 16));
    }

    #[test]
    fn cluster_cores_iter_agrees_with_cluster_of() {
        let t = Topology::atac_1024();
        for cl in 0..t.clusters() as u8 {
            let cl = ClusterId(cl);
            let cores: Vec<_> = t.cluster_cores(cl).collect();
            assert_eq!(cores.len(), 16);
            for c in cores {
                assert_eq!(t.cluster_of(c), cl);
            }
        }
    }

    #[test]
    fn hub_core_is_in_its_cluster() {
        let t = Topology::atac_1024();
        for cl in 0..t.clusters() as u8 {
            let cl = ClusterId(cl);
            assert_eq!(t.cluster_of(t.hub_core(cl)), cl);
        }
    }

    #[test]
    fn manhattan_examples() {
        let t = Topology::atac_1024();
        let a = t.core_at(0, 0);
        let b = t.core_at(31, 31);
        assert_eq!(t.manhattan(a, b), 62);
        assert_eq!(t.manhattan(a, a), 0);
        assert_eq!(t.manhattan(t.core_at(3, 4), t.core_at(5, 1)), 5);
    }

    #[test]
    fn xy_route_goes_x_first() {
        let t = Topology::atac_1024();
        let here = t.core_at(5, 5);
        assert_eq!(xy_route(&t, here, t.core_at(9, 2)), Port::East);
        assert_eq!(xy_route(&t, here, t.core_at(2, 9)), Port::West);
        assert_eq!(xy_route(&t, here, t.core_at(5, 9)), Port::South);
        assert_eq!(xy_route(&t, here, t.core_at(5, 2)), Port::North);
        assert_eq!(xy_route(&t, here, here), Port::Local);
    }

    #[test]
    fn xy_route_reaches_destination() {
        let t = Topology::atac_1024();
        let dst = t.core_at(17, 23);
        let mut here = t.core_at(3, 8);
        let mut hops = 0;
        loop {
            let p = xy_route(&t, here, dst);
            if p == Port::Local {
                break;
            }
            let (x, y) = t.xy(here);
            here = match p {
                Port::North => t.core_at(x, y - 1),
                Port::South => t.core_at(x, y + 1),
                Port::East => t.core_at(x + 1, y),
                Port::West => t.core_at(x - 1, y),
                _ => unreachable!(),
            };
            hops += 1;
            assert!(hops <= 64, "routing loop");
        }
        assert_eq!(here, dst);
        assert_eq!(hops, t.manhattan(t.core_at(3, 8), dst));
    }

    #[test]
    fn small_topology() {
        let t = Topology::small(8, 4);
        assert_eq!(t.cores(), 64);
        assert_eq!(t.clusters(), 4);
        assert_eq!(t.cores_per_cluster(), 16);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn bad_cluster_side_panics() {
        let _ = Topology::small(10, 4);
    }

    #[test]
    #[should_panic(expected = "overflow the 8-bit ClusterId")]
    fn more_clusters_than_cluster_ids_panics() {
        // 1,024 one-core clusters: ids 256 and up would alias 0 and up.
        let _ = Topology::small(32, 1);
    }
}
