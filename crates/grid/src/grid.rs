//! Uniform grid partitioning of the study space (Definition 2).

use traj_data::{BoundingBox, Point, Trajectory};

/// A uniform grid over a bounding box with square cells.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    bbox: BoundingBox,
    cell_size: f64,
    nx: usize,
    ny: usize,
}

/// A grid trajectory: the cell-coordinate sequence of a GPS trajectory.
pub type GridTrajectory = Vec<(u32, u32)>;

impl GridSpec {
    /// Creates a grid of `cell_size`-meter square cells covering `bbox`.
    ///
    /// # Panics
    /// Panics if `cell_size` is not positive or the box is degenerate.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "positive finite cell counts (bbox and cell size checked first)"
    )]
    pub fn new(bbox: BoundingBox, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        assert!(bbox.width() > 0.0 && bbox.height() > 0.0, "degenerate bounding box");
        let nx = (bbox.width() / cell_size).ceil().max(1.0) as usize;
        let ny = (bbox.height() / cell_size).ceil().max(1.0) as usize;
        GridSpec { bbox, cell_size, nx, ny }
    }

    /// Number of cells along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of cells along y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Cell side length in meters.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The covered bounding box.
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Maps a point to its cell coordinates, clamping points outside the
    /// box onto the border cells.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the clamped point's quotients are cell indexes, below the grid dims"
    )]
    pub fn locate(&self, p: Point) -> (u32, u32) {
        let q = self.bbox.clamp(p);
        let gx = ((q.x - self.bbox.min_x) / self.cell_size) as usize;
        let gy = ((q.y - self.bbox.min_y) / self.cell_size) as usize;
        (gx.min(self.nx - 1) as u32, gy.min(self.ny - 1) as u32)
    }

    /// Flat cell id of cell coordinates.
    pub fn cell_id(&self, gx: u32, gy: u32) -> u64 {
        gy as u64 * self.nx as u64 + gx as u64
    }

    /// Inverse of [`GridSpec::cell_id`].
    #[expect(clippy::cast_possible_truncation, reason = "ids are < nx * ny, so both parts fit u32")]
    pub fn cell_coords(&self, id: u64) -> (u32, u32) {
        ((id % self.nx as u64) as u32, (id / self.nx as u64) as u32)
    }

    /// Center point of a cell.
    pub fn cell_center(&self, gx: u32, gy: u32) -> Point {
        Point::new(
            self.bbox.min_x + (gx as f64 + 0.5) * self.cell_size,
            self.bbox.min_y + (gy as f64 + 0.5) * self.cell_size,
        )
    }

    /// Maps a GPS trajectory to its grid trajectory, one cell per point.
    pub fn grid_trajectory(&self, t: &Trajectory) -> GridTrajectory {
        t.points.iter().map(|&p| self.locate(p)).collect()
    }

    /// Grid trajectory with consecutive duplicate cells collapsed — the
    /// canonical form used for coarse-grid clustering, so that sampling
    /// rate differences inside a cell do not break cluster membership.
    pub fn canonical_grid_trajectory(&self, t: &Trajectory) -> GridTrajectory {
        let mut out: GridTrajectory = Vec::with_capacity(t.len());
        for &p in &t.points {
            let cell = self.locate(p);
            if out.last() != Some(&cell) {
                out.push(cell);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GridSpec {
        GridSpec::new(BoundingBox::from_extent(100.0, 50.0), 10.0)
    }

    #[test]
    fn dimensions() {
        let g = spec();
        assert_eq!(g.nx(), 10);
        assert_eq!(g.ny(), 5);
        assert_eq!(g.num_cells(), 50);
    }

    #[test]
    fn locate_inside_and_on_borders() {
        let g = spec();
        assert_eq!(g.locate(Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.locate(Point::new(15.0, 25.0)), (1, 2));
        // the far border belongs to the last cell
        assert_eq!(g.locate(Point::new(100.0, 50.0)), (9, 4));
        // outside points clamp to the border cells
        assert_eq!(g.locate(Point::new(-5.0, 500.0)), (0, 4));
    }

    #[test]
    fn cell_id_roundtrip() {
        let g = spec();
        for gy in 0..5u32 {
            for gx in 0..10u32 {
                assert_eq!(g.cell_coords(g.cell_id(gx, gy)), (gx, gy));
            }
        }
    }

    #[test]
    fn cell_center_is_inside_cell() {
        let g = spec();
        let c = g.cell_center(3, 2);
        assert_eq!(g.locate(c), (3, 2));
    }

    #[test]
    fn grid_trajectory_length_matches() {
        let g = spec();
        let t = Trajectory::from_xy(&[(1.0, 1.0), (2.0, 2.0), (15.0, 1.0)]);
        assert_eq!(g.grid_trajectory(&t), vec![(0, 0), (0, 0), (1, 0)]);
        assert_eq!(g.canonical_grid_trajectory(&t), vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn grid_cells_bound_frechet_within_cluster() {
        // Two trajectories with the same canonical grid sequence are
        // within one cell diagonal of each other under Fréchet — the
        // assumption behind the fast triplet generation (Section IV-F).
        let g = GridSpec::new(BoundingBox::from_extent(1000.0, 1000.0), 500.0);
        let a = Trajectory::from_xy(&[(10.0, 10.0), (600.0, 80.0)]);
        let b = Trajectory::from_xy(&[(450.0, 450.0), (990.0, 490.0)]);
        assert_eq!(g.canonical_grid_trajectory(&a), g.canonical_grid_trajectory(&b));
        let diag = (2.0f64).sqrt() * 500.0;
        let f = {
            // inline discrete Fréchet for 2-point trajectories
            let d00 = a.points[0].distance(&b.points[0]);
            let d11 = a.points[1].distance(&b.points[1]);
            d00.max(d11)
        };
        assert!(f <= diag);
    }
}
