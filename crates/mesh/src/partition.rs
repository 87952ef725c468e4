//! Domain decomposition onto a 3D processor grid (Table II of the paper).
//!
//! The paper runs on processor grids of shape `PX × PY × 4` (4 GPUs per
//! node), e.g. `5 × 17 × 4` on 85 El Capitan nodes up to `80 × 136 × 4` on
//! 10,880 nodes, chosen "adaptively tuned according to the problem sizes and
//! total number of GPUs ... to reduce communication costs". [`RankGrid::auto`]
//! reproduces that tuner: pick the factorization minimizing the estimated
//! halo surface for the given element grid.

/// A `px × py × pz` processor grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankGrid {
    /// Ranks across the margin (x).
    pub px: usize,
    /// Ranks along strike (y).
    pub py: usize,
    /// Ranks through the water column (z); fixed to GPUs-per-node in the
    /// paper's runs.
    pub pz: usize,
}

impl RankGrid {
    /// Total rank count.
    pub fn n_ranks(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// Choose the grid for `n_ranks` total ranks over an
    /// `ex × ey × ez`-element mesh, minimizing total halo surface (the sum
    /// over cuts of the cut-plane areas). `pz_fixed` pins the z-extent of
    /// the grid (the paper uses the 4 GPUs of a node vertically).
    pub fn auto(
        n_ranks: usize,
        ex: usize,
        ey: usize,
        ez: usize,
        pz_fixed: Option<usize>,
    ) -> RankGrid {
        assert!(n_ranks >= 1);
        let mut best: Option<(f64, RankGrid)> = None;
        let pz_candidates: Vec<usize> = match pz_fixed {
            Some(pz) => {
                assert!(n_ranks.is_multiple_of(pz), "pz must divide rank count");
                vec![pz]
            }
            None => divisors(n_ranks),
        };
        for pz in pz_candidates {
            let rest = n_ranks / pz;
            for px in divisors(rest) {
                let py = rest / px;
                if px > ex || py > ey || pz > ez.max(1) {
                    continue;
                }
                let g = RankGrid { px, py, pz };
                let cost = halo_surface(&g, ex, ey, ez);
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, g));
                }
            }
        }
        best.map(|(_, g)| g).unwrap_or(RankGrid {
            px: 1,
            py: n_ranks,
            pz: 1,
        })
    }
}

/// Total internal cut surface (in element faces) of a grid decomposition —
/// the communication volume proxy the tuner minimizes.
pub fn halo_surface(g: &RankGrid, ex: usize, ey: usize, ez: usize) -> f64 {
    let cuts_x = (g.px - 1) as f64 * (ey * ez) as f64;
    let cuts_y = (g.py - 1) as f64 * (ex * ez) as f64;
    let cuts_z = (g.pz - 1) as f64 * (ex * ey) as f64;
    cuts_x + cuts_y + cuts_z
}

fn divisors(n: usize) -> Vec<usize> {
    let mut d = Vec::new();
    let mut i = 1;
    while i * i <= n {
        if n.is_multiple_of(i) {
            d.push(i);
            if i != n / i {
                d.push(n / i);
            }
        }
        i += 1;
    }
    d.sort_unstable();
    d
}

/// The element box owned by one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankBox {
    /// `[start, end)` element range in x.
    pub x: (usize, usize),
    /// `[start, end)` element range in y.
    pub y: (usize, usize),
    /// `[start, end)` element range in z.
    pub z: (usize, usize),
}

impl RankBox {
    /// Local element count.
    pub fn n_elems(&self) -> usize {
        (self.x.1 - self.x.0) * (self.y.1 - self.y.0) * (self.z.1 - self.z.0)
    }
}

/// Box decomposition of an element grid over a [`RankGrid`].
pub struct Partition {
    /// The processor grid.
    pub grid: RankGrid,
    /// Element grid dimensions.
    pub elems: (usize, usize, usize),
    /// Per-rank boxes, rank-major `r = (kz·py + jy)·px + ix`.
    pub boxes: Vec<RankBox>,
}

impl Partition {
    /// Split an `ex × ey × ez` element grid across `grid`, near-evenly
    /// (remainder elements go to the low-index ranks, matching the usual
    /// block distribution).
    pub fn new(grid: RankGrid, ex: usize, ey: usize, ez: usize) -> Self {
        let boxes = (0..grid.n_ranks())
            .map(|r| {
                let ix = r % grid.px;
                let jy = (r / grid.px) % grid.py;
                let kz = r / (grid.px * grid.py);
                RankBox {
                    x: split_range(ex, grid.px, ix),
                    y: split_range(ey, grid.py, jy),
                    z: split_range(ez, grid.pz, kz),
                }
            })
            .collect();
        Partition {
            grid,
            elems: (ex, ey, ez),
            boxes,
        }
    }

    /// Load imbalance: `max local elems / mean local elems`.
    pub fn imbalance(&self) -> f64 {
        let max = self.boxes.iter().map(RankBox::n_elems).max().unwrap_or(0) as f64;
        let total: usize = self.boxes.iter().map(RankBox::n_elems).sum();
        let mean = total as f64 / self.boxes.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Bytes exchanged per halo swap for one field with `dofs_per_face`
    /// unknowns on an element face, by the busiest rank.
    pub fn max_halo_bytes(&self, dofs_per_face: usize) -> usize {
        self.boxes
            .iter()
            .enumerate()
            .map(|(r, b)| self.rank_halo_faces(r, b) * dofs_per_face * std::mem::size_of::<f64>())
            .max()
            .unwrap_or(0)
    }

    /// Count of faces rank `r` shares with neighbors (not domain boundary).
    fn rank_halo_faces(&self, r: usize, b: &RankBox) -> usize {
        let ix = r % self.grid.px;
        let jy = (r / self.grid.px) % self.grid.py;
        let kz = r / (self.grid.px * self.grid.py);
        let (dx, dy, dz) = (b.x.1 - b.x.0, b.y.1 - b.y.0, b.z.1 - b.z.0);
        let mut faces = 0;
        if ix > 0 {
            faces += dy * dz;
        }
        if ix + 1 < self.grid.px {
            faces += dy * dz;
        }
        if jy > 0 {
            faces += dx * dz;
        }
        if jy + 1 < self.grid.py {
            faces += dx * dz;
        }
        if kz > 0 {
            faces += dx * dy;
        }
        if kz + 1 < self.grid.pz {
            faces += dx * dy;
        }
        faces
    }
}

fn split_range(n: usize, parts: usize, idx: usize) -> (usize, usize) {
    let base = n / parts;
    let rem = n % parts;
    let start = idx * base + idx.min(rem);
    let len = base + usize::from(idx < rem);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_range_covers_exactly() {
        for &(n, p) in &[(10usize, 3usize), (7, 7), (100, 8), (5, 1)] {
            let mut covered = 0;
            let mut prev_end = 0;
            for i in 0..p {
                let (s, e) = split_range(n, p, i);
                assert_eq!(s, prev_end);
                covered += e - s;
                prev_end = e;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn partition_covers_all_elements_once() {
        let g = RankGrid {
            px: 3,
            py: 2,
            pz: 2,
        };
        let p = Partition::new(g, 10, 7, 5);
        let total: usize = p.boxes.iter().map(RankBox::n_elems).sum();
        assert_eq!(total, 10 * 7 * 5);
        assert_eq!(p.boxes.len(), 12);
    }

    #[test]
    fn imbalance_near_one_for_divisible() {
        let g = RankGrid {
            px: 2,
            py: 2,
            pz: 2,
        };
        let p = Partition::new(g, 8, 8, 8);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auto_prefers_cube_like_cuts() {
        // For a cubic mesh, an 8-rank grid should be 2x2x2, not 8x1x1.
        let g = RankGrid::auto(8, 64, 64, 64, None);
        assert_eq!(
            g,
            RankGrid {
                px: 2,
                py: 2,
                pz: 2
            }
        );
    }

    #[test]
    fn auto_respects_fixed_pz() {
        let g = RankGrid::auto(340, 512, 1728, 16, Some(4));
        assert_eq!(g.pz, 4);
        assert_eq!(g.n_ranks(), 340);
        // With a y-elongated mesh the tuner should put more ranks along y.
        assert!(g.py >= g.px, "expected py >= px, got {g:?}");
    }

    #[test]
    fn auto_reproduces_el_capitan_grid_shape() {
        // Table II: 340 GPUs on a margin-shaped mesh → 5 × 17 × 4.
        let g = RankGrid::auto(340, 640, 2176, 16, Some(4));
        assert_eq!(
            g,
            RankGrid {
                px: 5,
                py: 17,
                pz: 4
            }
        );
    }

    #[test]
    fn halo_bytes_positive_for_multirank() {
        let g = RankGrid {
            px: 2,
            py: 1,
            pz: 1,
        };
        let p = Partition::new(g, 8, 4, 4);
        assert!(p.max_halo_bytes(25) > 0);
    }

    #[test]
    fn single_rank_has_no_halo() {
        let g = RankGrid {
            px: 1,
            py: 1,
            pz: 1,
        };
        let p = Partition::new(g, 8, 4, 4);
        assert_eq!(p.max_halo_bytes(25), 0);
    }
}
