//! Deterministic synthetic city trajectory generators.
//!
//! The paper evaluates on the Porto and ChengDu taxi corpora, which we do
//! not have. What the evaluation actually depends on is that trajectories
//! (a) are locally smooth sequences of GPS samples, (b) share corridors so
//! that meaningful nearest neighbours exist under DTW/Fréchet/Hausdorff,
//! and (c) vary in length and shape. This module generates such data with
//! a hub-and-trip model: a city has a set of attraction hubs; a trip picks
//! two hubs and walks between them with heading inertia, lateral wander,
//! and GPS noise. Everything is driven by a caller-provided seed, so
//! every experiment in this repository is exactly reproducible.

use crate::types::{BoundingBox, Point, Trajectory};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of a synthetic city.
#[derive(Debug, Clone)]
pub struct CityParams {
    /// City extent in meters (the study-area bounding box).
    pub width: f64,
    /// City extent in meters.
    pub height: f64,
    /// Number of trip attraction hubs.
    pub n_hubs: usize,
    /// Standard deviation of trip endpoints around their hub, meters.
    pub hub_spread: f64,
    /// Mean spacing between consecutive GPS samples, meters.
    pub step_mean: f64,
    /// Standard deviation of per-sample GPS noise, meters.
    pub gps_noise: f64,
    /// Minimum number of points per trajectory.
    pub min_points: usize,
    /// Maximum number of points per trajectory.
    pub max_points: usize,
    /// Heading momentum in `[0, 1)`; higher values give smoother paths.
    pub heading_inertia: f64,
    /// Standard deviation of lateral wander added to the heading, radians.
    pub wander: f64,
}

impl CityParams {
    /// A Porto-like city: larger extent, longer trips.
    pub fn porto_like() -> Self {
        CityParams {
            width: 20_000.0,
            height: 15_000.0,
            n_hubs: 24,
            hub_spread: 400.0,
            step_mean: 110.0,
            gps_noise: 12.0,
            min_points: 20,
            max_points: 100,
            heading_inertia: 0.7,
            wander: 0.25,
        }
    }

    /// A ChengDu-like city: denser, shorter trips, more hubs.
    pub fn chengdu_like() -> Self {
        CityParams {
            width: 15_000.0,
            height: 15_000.0,
            n_hubs: 32,
            hub_spread: 300.0,
            step_mean: 90.0,
            gps_noise: 10.0,
            min_points: 15,
            max_points: 70,
            heading_inertia: 0.65,
            wander: 0.3,
        }
    }

    /// A tiny city for unit tests and doc examples.
    pub fn test_city() -> Self {
        CityParams {
            width: 2_000.0,
            height: 2_000.0,
            n_hubs: 6,
            hub_spread: 80.0,
            step_mean: 60.0,
            gps_noise: 5.0,
            min_points: 10,
            max_points: 25,
            heading_inertia: 0.6,
            wander: 0.3,
        }
    }

    /// The study-area bounding box.
    pub fn bbox(&self) -> BoundingBox {
        BoundingBox::from_extent(self.width, self.height)
    }
}

/// A seeded trajectory generator for one synthetic city.
pub struct CityGenerator {
    params: CityParams,
    hubs: Vec<Point>,
    rng: StdRng,
}

impl CityGenerator {
    fn draw_hubs(params: &CityParams, rng: &mut StdRng) -> Vec<Point> {
        assert!(params.n_hubs >= 2, "need at least two hubs");
        assert!(params.min_points >= 2 && params.min_points <= params.max_points);
        (0..params.n_hubs)
            .map(|_| {
                Point::new(
                    rng.random::<f64>() * params.width,
                    rng.random::<f64>() * params.height,
                )
            })
            .collect()
    }

    /// Creates a generator; the hub layout is derived from the seed.
    pub fn new(params: CityParams, seed: u64) -> Self {
        // Hubs and trips share one continuous stream — the historical
        // behaviour every seeded dataset in this repo depends on.
        let mut rng = StdRng::seed_from_u64(seed);
        let hubs = Self::draw_hubs(&params, &mut rng);
        CityGenerator { params, hubs, rng }
    }

    /// Creates a generator whose hub layout comes from `hub_seed` while
    /// the trip randomness comes from `trip_seed`.
    ///
    /// Workloads that draw several streams from one city need this
    /// split: a fixed `hub_seed` keeps the hub layout (and so the trip
    /// length distribution) the same for every stream, while each
    /// `trip_seed` yields its own trips.
    pub fn with_trip_seed(params: CityParams, hub_seed: u64, trip_seed: u64) -> Self {
        let mut hub_rng = StdRng::seed_from_u64(hub_seed);
        let hubs = Self::draw_hubs(&params, &mut hub_rng);
        CityGenerator { params, hubs, rng: StdRng::seed_from_u64(trip_seed) }
    }

    /// The city's hub locations.
    pub fn hubs(&self) -> &[Point] {
        &self.hubs
    }

    /// City parameters.
    pub fn params(&self) -> &CityParams {
        &self.params
    }

    fn gauss(rng: &mut StdRng) -> f64 {
        // Box–Muller
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Generates a single trip.
    pub fn generate_one(&mut self) -> Trajectory {
        let p = self.params.clone();
        let bbox = p.bbox();
        let a = self.rng.random_range(0..p.n_hubs);
        let mut b = self.rng.random_range(0..p.n_hubs - 1);
        if b >= a {
            b += 1;
        }
        let start = bbox.clamp(Point::new(
            self.hubs[a].x + Self::gauss(&mut self.rng) * p.hub_spread,
            self.hubs[a].y + Self::gauss(&mut self.rng) * p.hub_spread,
        ));
        let end = bbox.clamp(Point::new(
            self.hubs[b].x + Self::gauss(&mut self.rng) * p.hub_spread,
            self.hubs[b].y + Self::gauss(&mut self.rng) * p.hub_spread,
        ));

        // Trip length follows the hub distance, clamped to the configured
        // range, with a +-20% jitter.
        let direct = start.distance(&end);
        let jitter = 1.0 + 0.2 * (2.0 * self.rng.random::<f64>() - 1.0);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "nonnegative step count, clamped to [min_points, max_points] below"
        )]
        let n = ((direct / p.step_mean * jitter) as usize)
            .clamp(p.min_points, p.max_points);

        let mut points = Vec::with_capacity(n);
        let mut cur = start;
        let mut heading = (end.y - start.y).atan2(end.x - start.x);
        for i in 0..n {
            let noisy = Point::new(
                cur.x + Self::gauss(&mut self.rng) * p.gps_noise,
                cur.y + Self::gauss(&mut self.rng) * p.gps_noise,
            );
            points.push(bbox.clamp(noisy));
            if i + 1 == n {
                break;
            }
            // Blend the current heading with the bearing to the
            // destination, plus lateral wander.
            let remaining = (n - i - 1) as f64;
            let desired = (end.y - cur.y).atan2(end.x - cur.x);
            // Steering sharpens as the trip nears its destination so trips
            // actually arrive rather than orbit.
            let urgency = (1.0 / remaining.max(1.0)).clamp(0.05, 1.0);
            let inertia = p.heading_inertia * (1.0 - urgency);
            let mut delta = desired - heading;
            while delta > std::f64::consts::PI {
                delta -= 2.0 * std::f64::consts::PI;
            }
            while delta < -std::f64::consts::PI {
                delta += 2.0 * std::f64::consts::PI;
            }
            heading += (1.0 - inertia) * delta + Self::gauss(&mut self.rng) * p.wander;
            let step =
                p.step_mean * (0.7 + 0.6 * self.rng.random::<f64>()).max(0.1);
            cur = bbox.clamp(Point::new(
                cur.x + step * heading.cos(),
                cur.y + step * heading.sin(),
            ));
        }
        Trajectory::new(points)
    }

    /// Generates `n` trips.
    pub fn generate(&mut self, n: usize) -> Vec<Trajectory> {
        (0..n).map(|_| self.generate_one()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let a = CityGenerator::new(CityParams::test_city(), 9).generate(5);
        let b = CityGenerator::new(CityParams::test_city(), 9).generate(5);
        assert_eq!(a, b);
        let c = CityGenerator::new(CityParams::test_city(), 10).generate(5);
        assert_ne!(a, c);
    }

    #[test]
    fn lengths_respect_bounds() {
        let p = CityParams::test_city();
        let trips = CityGenerator::new(p.clone(), 1).generate(100);
        for t in &trips {
            assert!(t.len() >= p.min_points && t.len() <= p.max_points);
        }
    }

    #[test]
    fn points_stay_in_bbox() {
        let p = CityParams::porto_like();
        let bbox = p.bbox();
        let trips = CityGenerator::new(p, 2).generate(20);
        for t in &trips {
            assert!(t.points.iter().all(|&pt| bbox.contains(pt)));
        }
    }

    #[test]
    fn trips_are_locally_smooth() {
        // Consecutive steps should be bounded by roughly the step mean
        // plus noise; wildly teleporting points would break all distance
        // measures' neighbourhood structure.
        let p = CityParams::test_city();
        let max_step = p.step_mean * 1.3 + 6.0 * p.gps_noise;
        let trips = CityGenerator::new(p, 3).generate(50);
        for t in &trips {
            for w in t.points.windows(2) {
                assert!(
                    w[0].distance(&w[1]) <= max_step,
                    "step {} exceeds {}",
                    w[0].distance(&w[1]),
                    max_step
                );
            }
        }
    }

    #[test]
    fn fixed_hub_seed_keeps_the_layout_while_trip_seeds_vary() {
        let p = CityParams::porto_like();
        let mut g0 = CityGenerator::with_trip_seed(p.clone(), 7, 100);
        let mut g1 = CityGenerator::with_trip_seed(p, 7, 101);
        assert_eq!(g0.hubs(), g1.hubs());
        assert_ne!(g0.generate_one(), g1.generate_one(), "trip seeds must give fresh trips");
    }

    #[test]
    fn corridors_exist() {
        // With hubs in common, some pairs of trips must start near each
        // other — the property the fast triplet generator exploits.
        let p = CityParams::test_city();
        let trips = CityGenerator::new(p.clone(), 4).generate(200);
        let mut close_pairs = 0;
        for i in 0..trips.len() {
            for j in (i + 1)..trips.len() {
                if trips[i].first().distance(&trips[j].first()) < 2.0 * p.hub_spread {
                    close_pairs += 1;
                }
            }
        }
        assert!(close_pairs > 10, "only {close_pairs} close pairs");
    }
}
