use std::sync::Arc;

use roboads_linalg::{Matrix, Vector};

use crate::dynamics::DynamicsModel;
use crate::sensors::SensorModel;
use crate::{ModelError, Result};

/// A cheap, hashable identity of a system's model set: the pointer
/// identities of the shared dynamics and sensor `Arc`s plus the exact
/// bit pattern of the process-noise covariance `Q`.
///
/// Two systems with equal signatures evaluate every `f`/`h`/Jacobian
/// and every noise covariance **bitwise identically** — the
/// precondition for batching their detectors lane-wise. This is the
/// grouping key the fleet engine partitions heterogeneous fleets by
/// (combined with its own config discriminants: mode bank,
/// compensation, linearization policy, activation state); it subsumes
/// [`RobotSystem::shares_models`], which is exactly signature equality.
///
/// The signature is identity-based on purpose: two *separately
/// constructed* but numerically identical model sets get distinct
/// signatures. That costs a duplicated slab group (correct, merely less
/// batched), whereas value-based comparison of opaque `dyn` models is
/// impossible in general. Fleets built by cloning one
/// [`RobotSystem`] — the normal construction path — share `Arc`s and
/// therefore signatures.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelSignature {
    /// Address of the shared dynamics model.
    dynamics: usize,
    /// Bit patterns of `Q` in row-major order (bitwise equality, so two
    /// systems in one group run identical covariance propagation).
    process_noise: Vec<u64>,
    /// Addresses of the shared sensor models, in suite order.
    sensors: Vec<usize>,
}

/// Location of one sensor's components inside a stacked reading vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorSlice {
    /// Index of the sensor in the [`RobotSystem`] suite.
    pub sensor: usize,
    /// Offset of its first component in the stacked vector.
    pub offset: usize,
    /// Number of components.
    pub len: usize,
}

/// The assembled robot description the NUISE estimator consumes: a
/// kinematic model `f` with process noise `Q`, plus an ordered suite of
/// sensing workflows `h_i` with noise `R_i`.
///
/// Modes of the multi-mode engine partition the suite into *reference*
/// and *testing* sensors; `RobotSystem` provides the stacked measurement
/// function, Jacobian and noise covariance for any subset, in suite
/// order.
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_models::presets;
///
/// let sys = presets::khepera_system();
/// assert_eq!(sys.sensor_count(), 3);
/// let x = Vector::from_slice(&[1.0, 1.0, 0.0]);
/// // Stacked reading of IPS (index 0) and LiDAR (index 2).
/// let z = sys.measure_subset(&[0, 2], &x);
/// assert_eq!(z.len(), 3 + 4);
/// ```
#[derive(Clone)]
pub struct RobotSystem {
    dynamics: Arc<dyn DynamicsModel>,
    process_noise: Matrix,
    sensors: Vec<Arc<dyn SensorModel>>,
}

impl std::fmt::Debug for RobotSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RobotSystem")
            .field("dynamics", &self.dynamics.name())
            .field(
                "sensors",
                &self.sensors.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .field("state_dim", &self.dynamics.state_dim())
            .finish()
    }
}

impl RobotSystem {
    /// Assembles a system description.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DimensionMismatch`] if `process_noise` is
    /// not `n × n` for the dynamics' state dimension, and
    /// [`ModelError::InvalidParameter`] if the sensor suite is empty or
    /// `process_noise` is not symmetric positive definite.
    pub fn new(
        dynamics: Arc<dyn DynamicsModel>,
        process_noise: Matrix,
        sensors: Vec<Arc<dyn SensorModel>>,
    ) -> Result<Self> {
        let n = dynamics.state_dim();
        if process_noise.shape() != (n, n) {
            return Err(ModelError::DimensionMismatch {
                what: "process noise",
                expected: n,
                actual: process_noise.rows(),
            });
        }
        if process_noise.cholesky().is_err() {
            return Err(ModelError::InvalidParameter {
                name: "process_noise",
                value: "not symmetric positive definite".into(),
            });
        }
        if sensors.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "sensors",
                value: "empty suite".into(),
            });
        }
        Ok(RobotSystem {
            dynamics,
            process_noise,
            sensors,
        })
    }

    /// The kinematic model.
    pub fn dynamics(&self) -> &dyn DynamicsModel {
        self.dynamics.as_ref()
    }

    /// State dimension `n`.
    pub fn state_dim(&self) -> usize {
        self.dynamics.state_dim()
    }

    /// Input dimension `q`.
    pub fn input_dim(&self) -> usize {
        self.dynamics.input_dim()
    }

    /// Whether `self` and `other` are built from the *same* model
    /// objects: pointer-identical dynamics and sensor suite (the shared
    /// `Arc`s of a fleet built by cloning one system) and a
    /// bitwise-equal process-noise matrix. Two systems sharing models
    /// evaluate every `f`/`h`/Jacobian bitwise identically, which is
    /// the precondition for batching their detectors lane-wise.
    ///
    /// Equivalent to `self.signature() == other.signature()` without
    /// materializing either signature.
    pub fn shares_models(&self, other: &RobotSystem) -> bool {
        Arc::ptr_eq(&self.dynamics, &other.dynamics)
            && self.process_noise.shape() == other.process_noise.shape()
            && self
                .process_noise
                .as_slice()
                .iter()
                .zip(other.process_noise.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.sensors.len() == other.sensors.len()
            && self
                .sensors
                .iter()
                .zip(&other.sensors)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// This system's [`ModelSignature`]: the hashable grouping key for
    /// lane-batched fleets. Allocates two small `Vec`s, so callers that
    /// group many robots should compute each robot's signature once
    /// (the fleet engine does this only at partition time).
    pub fn signature(&self) -> ModelSignature {
        ModelSignature {
            dynamics: Arc::as_ptr(&self.dynamics) as *const () as usize,
            process_noise: self
                .process_noise
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            sensors: self
                .sensors
                .iter()
                .map(|s| Arc::as_ptr(s) as *const () as usize)
                .collect(),
        }
    }

    /// Process-noise covariance `Q`.
    pub fn process_noise(&self) -> &Matrix {
        &self.process_noise
    }

    /// Number of sensing workflows `p`.
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// The full sensor suite in order.
    pub fn sensors(&self) -> &[Arc<dyn SensorModel>] {
        &self.sensors
    }

    /// One sensor by suite index.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownSensor`] for an out-of-range index.
    pub fn sensor(&self, index: usize) -> Result<&dyn SensorModel> {
        self.sensors
            .get(index)
            .map(|s| s.as_ref())
            .ok_or(ModelError::UnknownSensor {
                index,
                count: self.sensors.len(),
            })
    }

    /// Name of sensor `index`, or `"?"` if out of range (for reports).
    pub fn sensor_name(&self, index: usize) -> &str {
        self.sensors.get(index).map_or("?", |s| s.name())
    }

    /// Total measurement dimension of the full suite.
    pub fn total_measurement_dim(&self) -> usize {
        self.sensors.iter().map(|s| s.dim()).sum()
    }

    /// Validates a subset of sensor indices (in-range, strictly
    /// increasing — i.e. suite order without duplicates).
    fn validate_subset(&self, indices: &[usize]) -> Result<()> {
        let mut prev: Option<usize> = None;
        for &i in indices {
            if i >= self.sensors.len() {
                return Err(ModelError::UnknownSensor {
                    index: i,
                    count: self.sensors.len(),
                });
            }
            if let Some(p) = prev {
                if i <= p {
                    return Err(ModelError::InvalidParameter {
                        name: "sensor subset",
                        value: format!("{indices:?} not strictly increasing"),
                    });
                }
            }
            prev = Some(i);
        }
        Ok(())
    }

    /// Slice layout of a stacked vector over the given subset.
    ///
    /// # Panics
    ///
    /// Panics on an invalid subset (out-of-range or unsorted indices are
    /// a programming error in mode construction).
    pub fn subset_slices(&self, indices: &[usize]) -> Vec<SensorSlice> {
        self.validate_subset(indices).expect("valid sensor subset");
        let mut out = Vec::with_capacity(indices.len());
        let mut offset = 0;
        for &i in indices {
            let len = self.sensors[i].dim();
            out.push(SensorSlice {
                sensor: i,
                offset,
                len,
            });
            offset += len;
        }
        out
    }

    /// Writes the slice layout of a stacked vector over the given
    /// subset into `out` (cleared first). Identical to
    /// [`RobotSystem::subset_slices`] but reuses `out`'s capacity, so a
    /// warm caller performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics on an invalid subset (out-of-range or unsorted indices are
    /// a programming error in mode construction).
    pub fn subset_slices_into(&self, indices: &[usize], out: &mut Vec<SensorSlice>) {
        self.validate_subset(indices).expect("valid sensor subset");
        out.clear();
        let mut offset = 0;
        for &i in indices {
            let len = self.sensors[i].dim();
            out.push(SensorSlice {
                sensor: i,
                offset,
                len,
            });
            offset += len;
        }
    }

    /// Stacked measurement dimension of a subset.
    pub fn subset_dim(&self, indices: &[usize]) -> usize {
        indices.iter().map(|&i| self.sensors[i].dim()).sum()
    }

    /// Stacked noiseless measurement `h_S(x)` over the subset.
    ///
    /// # Panics
    ///
    /// Panics on an invalid subset.
    pub fn measure_subset(&self, indices: &[usize], x: &Vector) -> Vector {
        self.validate_subset(indices).expect("valid sensor subset");
        let parts: Vec<Vector> = indices
            .iter()
            .map(|&i| self.sensors[i].measure(x))
            .collect();
        Vector::concat_all(parts.iter())
    }

    /// Stacked measurement Jacobian `C_S(x)` over the subset.
    ///
    /// # Panics
    ///
    /// Panics on an invalid subset.
    pub fn jacobian_subset(&self, indices: &[usize], x: &Vector) -> Matrix {
        self.validate_subset(indices).expect("valid sensor subset");
        let blocks: Vec<Matrix> = indices
            .iter()
            .map(|&i| self.sensors[i].jacobian(x))
            .collect();
        Matrix::vstack_all(blocks.iter()).expect("sensor jacobians share the state dimension")
    }

    /// Allocation-free variant of [`RobotSystem::measure_subset`]: writes
    /// the stacked measurement into `out` using a precomputed slice
    /// layout from [`RobotSystem::subset_slices`].
    ///
    /// Produces bitwise-identical values to `measure_subset` for the
    /// same subset.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the stacked subset dimension.
    pub fn measure_subset_into(&self, slices: &[SensorSlice], x: &Vector, out: &mut Vector) {
        let out = out.as_mut_slice();
        for slice in slices {
            self.sensors[slice.sensor]
                .measure_into(x, &mut out[slice.offset..slice.offset + slice.len]);
        }
    }

    /// Allocation-free variant of [`RobotSystem::jacobian_subset`]: writes
    /// the stacked Jacobian rows into `out`, which must already have the
    /// stacked subset row count and `state_dim` columns.
    ///
    /// Produces bitwise-identical values to `jacobian_subset` for the
    /// same subset.
    ///
    /// # Panics
    ///
    /// Panics if `out` is too small for the stacked Jacobian.
    pub fn jacobian_subset_into(&self, slices: &[SensorSlice], x: &Vector, out: &mut Matrix) {
        for slice in slices {
            self.sensors[slice.sensor].jacobian_into(x, out, slice.offset);
        }
    }

    /// Block-diagonal noise covariance `R_S` over the subset.
    ///
    /// # Panics
    ///
    /// Panics on an invalid subset.
    pub fn noise_subset(&self, indices: &[usize]) -> Matrix {
        self.validate_subset(indices).expect("valid sensor subset");
        let blocks: Vec<Matrix> = indices
            .iter()
            .map(|&i| self.sensors[i].noise_covariance())
            .collect();
        Matrix::block_diagonal(blocks.iter()).expect("nonempty subset")
    }

    /// Indices (into the stacked subset vector) of angular components,
    /// whose residuals must be wrapped.
    ///
    /// # Panics
    ///
    /// Panics on an invalid subset.
    pub fn angular_components_subset(&self, indices: &[usize]) -> Vec<usize> {
        let mut out = Vec::new();
        for slice in self.subset_slices(indices) {
            for &c in self.sensors[slice.sensor].angular_components() {
                out.push(slice.offset + c);
            }
        }
        out
    }

    /// Extracts one sensor's components from a stacked subset vector.
    ///
    /// # Panics
    ///
    /// Panics if `sensor` is not part of `indices` or the vector length
    /// does not match the subset.
    pub fn extract_sensor(&self, indices: &[usize], stacked: &Vector, sensor: usize) -> Vector {
        let slices = self.subset_slices(indices);
        assert_eq!(
            stacked.len(),
            self.subset_dim(indices),
            "stacked vector length mismatch"
        );
        let slice = slices
            .iter()
            .find(|s| s.sensor == sensor)
            .unwrap_or_else(|| panic!("sensor {sensor} not in subset {indices:?}"));
        stacked.segment(slice.offset, slice.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn khepera_layout() {
        let sys = presets::khepera_system();
        assert_eq!(sys.sensor_count(), 3);
        assert_eq!(sys.total_measurement_dim(), 3 + 3 + 4);
        assert_eq!(sys.sensor_name(presets::KHEPERA_IPS), "ips");
        assert_eq!(
            sys.sensor_name(presets::KHEPERA_WHEEL_ENCODER),
            "wheel-encoder"
        );
        assert_eq!(sys.sensor_name(presets::KHEPERA_LIDAR), "lidar");
        assert_eq!(sys.sensor_name(99), "?");
    }

    #[test]
    fn subset_stacking_matches_individual_sensors() {
        let sys = presets::khepera_system();
        let x = Vector::from_slice(&[1.2, 0.8, 0.4]);
        let z = sys.measure_subset(&[0, 2], &x);
        let z_ips = sys.sensor(0).unwrap().measure(&x);
        let z_lidar = sys.sensor(2).unwrap().measure(&x);
        assert_eq!(z, z_ips.concat(&z_lidar));

        let c = sys.jacobian_subset(&[0, 2], &x);
        assert_eq!(c.shape(), (7, 3));
        let r = sys.noise_subset(&[0, 2]);
        assert_eq!(r.shape(), (7, 7));
        assert!(r.cholesky().is_ok());
    }

    #[test]
    fn subset_into_variants_are_bitwise_identical() {
        let sys = presets::khepera_system();
        let x = Vector::from_slice(&[1.2, 0.8, 0.4]);
        for subset in [&[0usize][..], &[0, 2], &[1, 2], &[0, 1, 2]] {
            let slices = sys.subset_slices(subset);
            let dim = sys.subset_dim(subset);

            let mut z = Vector::zeros(dim);
            sys.measure_subset_into(&slices, &x, &mut z);
            assert_eq!(z, sys.measure_subset(subset, &x));

            let mut c = Matrix::zeros(dim, sys.state_dim());
            sys.jacobian_subset_into(&slices, &x, &mut c);
            assert_eq!(c, sys.jacobian_subset(subset, &x));
        }
    }

    #[test]
    fn subset_slices_and_extraction() {
        let sys = presets::khepera_system();
        let slices = sys.subset_slices(&[1, 2]);
        assert_eq!(
            slices[0],
            SensorSlice {
                sensor: 1,
                offset: 0,
                len: 3
            }
        );
        assert_eq!(
            slices[1],
            SensorSlice {
                sensor: 2,
                offset: 3,
                len: 4
            }
        );

        let stacked = Vector::from_fn(7, |i| i as f64);
        let lidar_part = sys.extract_sensor(&[1, 2], &stacked, 2);
        assert_eq!(lidar_part.as_slice(), &[3.0, 4.0, 5.0, 6.0]);

        // The in-place variant produces the same layout and reuses the
        // destination across subsets.
        let mut reused = Vec::new();
        sys.subset_slices_into(&[1, 2], &mut reused);
        assert_eq!(reused, slices);
        sys.subset_slices_into(&[0], &mut reused);
        assert_eq!(reused, sys.subset_slices(&[0]));
    }

    #[test]
    fn angular_components_are_offset() {
        let sys = presets::khepera_system();
        // IPS θ at 2; wheel-encoder θ at 3+2=5; LiDAR θ at 6+3=9.
        assert_eq!(sys.angular_components_subset(&[0, 1, 2]), vec![2, 5, 9]);
        assert_eq!(sys.angular_components_subset(&[2]), vec![3]);
    }

    #[test]
    #[should_panic(expected = "valid sensor subset")]
    fn unsorted_subset_panics() {
        let sys = presets::khepera_system();
        sys.measure_subset(&[2, 0], &Vector::zeros(3));
    }

    #[test]
    fn out_of_range_sensor_errors() {
        let sys = presets::khepera_system();
        assert!(matches!(
            sys.sensor(7),
            Err(ModelError::UnknownSensor { index: 7, count: 3 })
        ));
    }

    #[test]
    fn signatures_group_by_model_identity() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let sys = presets::khepera_system();
        // Clones share `Arc`s: one group.
        let clone = sys.clone();
        assert!(sys.shares_models(&clone));
        assert_eq!(sys.signature(), clone.signature());
        let hash = |sig: &ModelSignature| {
            let mut h = DefaultHasher::new();
            sig.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&sys.signature()), hash(&clone.signature()));

        // A separately instantiated (numerically identical) system is a
        // distinct identity: different signature, no shared models.
        let other = presets::khepera_system();
        assert!(!sys.shares_models(&other));
        assert_ne!(sys.signature(), other.signature());

        // Same model `Arc`s but a retuned Q: distinct signature.
        let retuned = RobotSystem::new(
            sys.dynamics.clone(),
            sys.process_noise().clone() * 2.0,
            sys.sensors.clone(),
        )
        .unwrap();
        assert!(!sys.shares_models(&retuned));
        assert_ne!(sys.signature(), retuned.signature());
    }

    #[test]
    fn construction_validation() {
        use crate::dynamics::Unicycle;
        use crate::sensors::Ips;
        let dynamics: Arc<dyn DynamicsModel> = Arc::new(Unicycle::new(0.1).unwrap());
        let ips: Arc<dyn SensorModel> = Arc::new(Ips::new(0.01, 0.01).unwrap());

        // Wrong Q shape.
        assert!(
            RobotSystem::new(dynamics.clone(), Matrix::identity(2), vec![ips.clone()]).is_err()
        );
        // Q not SPD.
        assert!(RobotSystem::new(
            dynamics.clone(),
            Matrix::from_diagonal(&[1.0, 1.0, -1.0]),
            vec![ips.clone()]
        )
        .is_err());
        // Empty suite.
        assert!(RobotSystem::new(dynamics.clone(), Matrix::identity(3) * 0.01, vec![]).is_err());
        // Valid.
        assert!(RobotSystem::new(dynamics, Matrix::identity(3) * 0.01, vec![ips]).is_ok());
    }
}
