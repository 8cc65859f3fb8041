//! Highway scenario generation with ground truth.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Number of lanes on the simulated highway.
pub const NUM_LANES: usize = 3;
/// Maximum number of vehicles the selection network considers.
pub const MAX_VEHICLES: usize = 4;

/// One surrounding vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vehicle {
    /// Lane index `0 ..< NUM_LANES`.
    pub lane: usize,
    /// Longitudinal distance ahead of the ego vehicle, in metres.
    pub distance: f32,
    /// Lateral offset from the lane centre, in metres (±).
    pub lateral: f32,
    /// Physical width, metres.
    pub width: f32,
}

/// Environmental conditions controlling perception difficulty and traffic
/// mix.  Training uses [`Conditions::nominal`]; the shifted presets model
/// deployment situations absent from training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Conditions {
    /// Expected number of vehicles (Poisson-ish via repeated Bernoulli).
    pub traffic_density: f32,
    /// Std-dev of bounding-box measurement noise (normalised units).
    pub detection_noise: f32,
    /// Probability that a real vehicle is missed by the detector.
    pub dropout: f32,
    /// Probability of a phantom (false-positive) detection.
    pub phantom_rate: f32,
    /// Minimum vehicle distance (small = aggressive cut-ins).
    pub min_distance: f32,
}

impl Conditions {
    /// Clear weather, moderate traffic — the training distribution.
    pub fn nominal() -> Self {
        Conditions {
            traffic_density: 2.0,
            detection_noise: 0.01,
            dropout: 0.02,
            phantom_rate: 0.01,
            min_distance: 20.0,
        }
    }

    /// Heavy rain: noisy boxes, frequent missed detections.
    pub fn heavy_rain() -> Self {
        Conditions {
            detection_noise: 0.05,
            dropout: 0.15,
            phantom_rate: 0.05,
            ..Conditions::nominal()
        }
    }

    /// Dense traffic with close cut-ins.
    pub fn dense_cutins() -> Self {
        Conditions {
            traffic_density: 3.5,
            min_distance: 6.0,
            ..Conditions::nominal()
        }
    }

    /// A partially degraded sensor: heavy noise without extra dropout.
    pub fn degraded_sensor() -> Self {
        Conditions {
            detection_noise: 0.08,
            ..Conditions::nominal()
        }
    }
}

/// One highway situation: the ego lane and surrounding vehicles, plus the
/// conditions it was generated under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Ego vehicle's lane.
    pub ego_lane: usize,
    /// Surrounding vehicles, unordered.
    pub vehicles: Vec<Vehicle>,
    /// Generation conditions (perception reads the noise fields).
    pub conditions: Conditions,
}

impl Scenario {
    /// Samples a random scenario under `conditions`.
    pub fn sample(conditions: Conditions, rng: &mut impl Rng) -> Self {
        let ego_lane = rng.gen_range(0..NUM_LANES);
        let mut vehicles = Vec::new();
        for _ in 0..MAX_VEHICLES {
            if (rng.gen::<f32>()) < conditions.traffic_density / MAX_VEHICLES as f32 {
                vehicles.push(Vehicle {
                    lane: rng.gen_range(0..NUM_LANES),
                    distance: rng.gen_range(conditions.min_distance..120.0),
                    lateral: rng.gen_range(-0.5..0.5),
                    width: rng.gen_range(1.7..2.3),
                });
            }
        }
        Scenario {
            ego_lane,
            vehicles,
            conditions,
        }
    }

    /// Ground truth: index (into `vehicles`) of the nearest vehicle in the
    /// ego lane, or `None` when no vehicle is ahead in the ego lane — the
    /// paper's special class "⊥".
    pub fn ground_truth_front_car(&self) -> Option<usize> {
        self.vehicles
            .iter()
            .enumerate()
            .filter(|(_, v)| v.lane == self.ego_lane)
            .min_by(|a, b| {
                a.1.distance
                    .partial_cmp(&b.1.distance)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let s = Scenario::sample(Conditions::nominal(), &mut rng);
            assert!(s.ego_lane < NUM_LANES);
            assert!(s.vehicles.len() <= MAX_VEHICLES);
            for v in &s.vehicles {
                assert!(v.lane < NUM_LANES);
                assert!(v.distance >= 20.0 && v.distance <= 120.0);
            }
        }
    }

    #[test]
    fn ground_truth_is_nearest_in_ego_lane() {
        let s = Scenario {
            ego_lane: 1,
            vehicles: vec![
                Vehicle {
                    lane: 1,
                    distance: 80.0,
                    lateral: 0.0,
                    width: 2.0,
                },
                Vehicle {
                    lane: 0,
                    distance: 10.0,
                    lateral: 0.0,
                    width: 2.0,
                },
                Vehicle {
                    lane: 1,
                    distance: 35.0,
                    lateral: 0.1,
                    width: 2.0,
                },
            ],
            conditions: Conditions::nominal(),
        };
        assert_eq!(s.ground_truth_front_car(), Some(2));
    }

    #[test]
    fn empty_ego_lane_has_no_front_car() {
        let s = Scenario {
            ego_lane: 2,
            vehicles: vec![Vehicle {
                lane: 0,
                distance: 30.0,
                lateral: 0.0,
                width: 2.0,
            }],
            conditions: Conditions::nominal(),
        };
        assert_eq!(s.ground_truth_front_car(), None);
    }

    #[test]
    fn shifted_conditions_are_harder() {
        let nominal = Conditions::nominal();
        assert!(Conditions::heavy_rain().dropout > nominal.dropout);
        assert!(Conditions::dense_cutins().min_distance < nominal.min_distance);
        assert!(Conditions::degraded_sensor().detection_noise > nominal.detection_noise);
    }

    #[test]
    fn dense_traffic_generates_more_vehicles_on_average() {
        let mut rng = StdRng::seed_from_u64(1);
        let count = |c: Conditions, rng: &mut StdRng| -> usize {
            (0..300)
                .map(|_| Scenario::sample(c, rng).vehicles.len())
                .sum()
        };
        let nominal = count(Conditions::nominal(), &mut rng);
        let dense = count(Conditions::dense_cutins(), &mut rng);
        assert!(dense > nominal, "dense {dense} <= nominal {nominal}");
    }
}
