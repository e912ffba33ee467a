//! Versioned binary snapshot/restore of detector and fleet state
//! (`DESIGN.md` §18).
//!
//! A snapshot captures every piece of *mutable* detection state — mode
//! probabilities, per-mode filter states and covariances, the last
//! committed mode outputs, open decision windows, and the ingest
//! boundary's hold-last staging buffers — so that restoring onto an identically-constructed twin and
//! continuing is bitwise indistinguishable from never having stopped.
//!
//! What is deliberately *not* in a snapshot:
//!
//! * **Construction config** (models, mode bank, thresholds, floors):
//!   the restore target is built by
//!   the same constructor call as the original — exactly the
//!   twin-reconstruction discipline of [`crate::replay_capsule`]. The
//!   header's shape checks (mode count, state dimensions) catch a
//!   mismatched twin early.
//! * **Constants** (each mode's kernel layout and parsimony thresholds,
//!   the decision maker's χ² tests): resolved by the twin's constructor
//!   and shared or copied by every clone of it.
//! * **Scratch** (the per-mode NUISE workspaces — one lane for a
//!   standalone step, eight in each fleet slab tile — and the decision
//!   maker's one-lane statistic scratch): built on first use, never
//!   copied by `Clone`, and never carries state across iterations, so
//!   a never-stepped twin restores and continues bitwise.
//! * **The flight recorder**: its ring contents never influence a
//!   future step's outputs, and a fresh recorder re-attaches cleanly.
//! * **Fleet partition state**: the signature grouping re-resolves
//!   on the next batch.
//!
//! The encoding is hand-rolled little-endian bytes over
//! [`roboads_obs::wire`] — floats travel as `f64::to_bits`, so the
//! roundtrip is lossless for every value including NaN payloads.

use roboads_linalg::{Matrix, Vector};
use roboads_obs::wire::{self, ByteReader};

use crate::detector::RoboAds;
use crate::fleet::FleetEngine;
use crate::ingest::FleetIngest;
use crate::nuise::NuiseOutput;
use crate::{CoreError, Result};

/// Magic prefix of every snapshot ("RoboADS Snapshot").
const MAGIC: &[u8; 4] = b"RADS";

/// Format version; bumped on any layout change. Restore rejects
/// mismatches outright — snapshots are checkpoints, not archives, so
/// there is no cross-version migration path. Version 2 added the
/// per-mode parsimony statistics to every stored mode output; version 3
/// dropped the engine's mode-bank activation schedule.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Body kind tags, so a fleet snapshot can never be restored onto a
/// standalone detector (or vice versa) by accident.
const KIND_DETECTOR: u8 = 1;
const KIND_FLEET: u8 = 2;

pub(crate) fn snapshot_err(reason: impl Into<String>) -> CoreError {
    CoreError::Snapshot {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------
// Shared encode/decode helpers for the per-component `snap_write` /
// `snap_read` implementations (engine, selector, decision, ingest).
// ---------------------------------------------------------------------

pub(crate) fn put_vector(out: &mut Vec<u8>, v: &Vector) {
    wire::put_f64_slice(out, v.as_slice());
}

pub(crate) fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    wire::put_u32(out, m.rows() as u32);
    wire::put_u32(out, m.cols() as u32);
    wire::put_f64_slice(out, m.as_slice());
}

/// Strict read into a pre-shaped vector: the twin's constructor already
/// sized it, so a length mismatch means the snapshot belongs to a
/// different configuration.
pub(crate) fn read_vector(rd: &mut ByteReader<'_>, v: &mut Vector) -> Result<()> {
    rd.f64_into(v.as_mut_slice())?;
    Ok(())
}

pub(crate) fn read_matrix(rd: &mut ByteReader<'_>, m: &mut Matrix) -> Result<()> {
    let rows = rd.u32()? as usize;
    let cols = rd.u32()? as usize;
    if rows != m.rows() || cols != m.cols() {
        return Err(snapshot_err(format!(
            "matrix shape mismatch: snapshot {rows}x{cols}, twin {}x{}",
            m.rows(),
            m.cols()
        )));
    }
    rd.f64_into(m.as_mut_slice())?;
    Ok(())
}

/// Size-tolerant vector read for buffers that start empty and are
/// shaped on first use (the ingest staging slots).
pub(crate) fn read_vector_flex(rd: &mut ByteReader<'_>, v: &mut Vector) -> Result<()> {
    let data = rd.f64_vec()?;
    if data.len() == v.len() {
        v.as_mut_slice().copy_from_slice(&data);
    } else {
        *v = Vector::from_slice(&data);
    }
    Ok(())
}

/// Strict read of a bool mask the twin sized at construction: the
/// length is checked before any value is read.
pub(crate) fn read_bools(
    rd: &mut ByteReader<'_>,
    out: &mut Vec<bool>,
    expected: usize,
) -> Result<()> {
    let len = rd.u32()? as usize;
    if len != expected {
        return Err(snapshot_err(format!(
            "bool mask length mismatch: snapshot {len}, twin {expected}"
        )));
    }
    out.clear();
    for _ in 0..len {
        out.push(rd.bool()?);
    }
    Ok(())
}

pub(crate) fn put_nuise_output(out: &mut Vec<u8>, o: &NuiseOutput) {
    put_vector(out, &o.state_estimate);
    put_matrix(out, &o.state_covariance);
    put_vector(out, &o.actuator_anomaly);
    put_matrix(out, &o.actuator_covariance);
    put_vector(out, &o.sensor_anomaly);
    put_matrix(out, &o.sensor_covariance);
    wire::put_f64(out, o.likelihood);
    wire::put_f64(out, o.consistency);
    put_vector(out, &o.innovation);
    wire::put_f64(out, o.actuator_statistic);
    wire::put_f64_slice(out, &o.testing_statistics);
}

pub(crate) fn read_nuise_output(rd: &mut ByteReader<'_>, o: &mut NuiseOutput) -> Result<()> {
    read_vector(rd, &mut o.state_estimate)?;
    read_matrix(rd, &mut o.state_covariance)?;
    read_vector(rd, &mut o.actuator_anomaly)?;
    read_matrix(rd, &mut o.actuator_covariance)?;
    read_vector(rd, &mut o.sensor_anomaly)?;
    read_matrix(rd, &mut o.sensor_covariance)?;
    o.likelihood = rd.f64()?;
    o.consistency = rd.f64()?;
    read_vector(rd, &mut o.innovation)?;
    o.actuator_statistic = rd.f64()?;
    rd.f64_into(&mut o.testing_statistics)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Top-level envelope
// ---------------------------------------------------------------------

fn write_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(MAGIC);
    wire::put_u32(out, SNAPSHOT_VERSION);
    wire::put_u8(out, kind);
}

fn read_header(rd: &mut ByteReader<'_>, expect_kind: u8) -> Result<()> {
    let magic = rd.bytes(4)?;
    if magic != MAGIC {
        return Err(snapshot_err("bad magic (not a RoboADS snapshot)"));
    }
    let version = rd.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(snapshot_err(format!(
            "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
        )));
    }
    let kind = rd.u8()?;
    if kind != expect_kind {
        return Err(snapshot_err(format!(
            "snapshot kind mismatch: found {kind}, expected {expect_kind}"
        )));
    }
    Ok(())
}

fn finish(rd: &ByteReader<'_>) -> Result<()> {
    if !rd.is_empty() {
        return Err(snapshot_err(format!(
            "{} trailing bytes after snapshot body",
            rd.remaining()
        )));
    }
    Ok(())
}

/// Serializes a standalone detector's complete mutable state.
pub fn snapshot_detector(detector: &RoboAds) -> Vec<u8> {
    let mut out = Vec::new();
    write_header(&mut out, KIND_DETECTOR);
    detector.snap_write(&mut out);
    out
}

/// Restores a detector snapshot onto `detector`, which must be an
/// identically-constructed twin (same system, mode bank and config) of
/// the snapshotted instance. After a successful restore, continuing the
/// twin is bitwise identical to continuing the original.
///
/// # Errors
///
/// [`CoreError::Snapshot`] on a bad magic/version/kind, any shape
/// mismatch against the twin, or trailing bytes. On error the twin may
/// hold partially-restored state and must not be stepped.
pub fn restore_detector(detector: &mut RoboAds, bytes: &[u8]) -> Result<()> {
    let mut rd = ByteReader::new(bytes);
    read_header(&mut rd, KIND_DETECTOR)?;
    detector.snap_read(&mut rd)?;
    finish(&rd)
}

/// Serializes a fleet's complete mutable state: the engine (per-robot
/// detectors in fleet order, tick counters) and the ingest boundary's
/// staging slots.
pub fn snapshot_fleet(engine: &FleetEngine, ingest: &FleetIngest) -> Vec<u8> {
    let mut out = Vec::new();
    snapshot_fleet_into(engine, ingest, &mut out);
    out
}

/// [`snapshot_fleet`] into `out`, which is cleared first: a buffer kept
/// from one snapshot to the next keeps its capacity, so a periodic
/// snapshot of a same-sized fleet allocates nothing.
pub(crate) fn snapshot_fleet_into(engine: &FleetEngine, ingest: &FleetIngest, out: &mut Vec<u8>) {
    out.clear();
    write_header(out, KIND_FLEET);
    engine.snap_write(out);
    ingest.snap_write(out);
}

/// Restores a fleet snapshot onto an identically-constructed twin
/// `(engine, ingest)` pair. The signature partition is invalidated and
/// re-resolves on the next batch — the grouping is derived state, and re-deriving it is bitwise
/// neutral (pinned by `tests/fleet_determinism.rs`).
///
/// # Errors
///
/// [`CoreError::Snapshot`] on envelope or shape mismatches (including
/// a robot-count mismatch against the twin). On error the twin pair
/// may hold partially-restored state and must not be stepped.
pub fn restore_fleet(
    engine: &mut FleetEngine,
    ingest: &mut FleetIngest,
    bytes: &[u8],
) -> Result<()> {
    let mut rd = ByteReader::new(bytes);
    read_header(&mut rd, KIND_FLEET)?;
    engine.snap_read(&mut rd)?;
    ingest.snap_read(&mut rd)?;
    finish(&rd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboads_models::presets;

    fn detector() -> RoboAds {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        RoboAds::with_defaults(system, x0).unwrap()
    }

    #[test]
    fn header_rejects_bad_magic_version_and_kind() {
        let mut twin = detector();
        let snap = snapshot_detector(&twin);

        let mut bad = snap.clone();
        bad[0] = b'X';
        assert!(matches!(
            restore_detector(&mut twin, &bad),
            Err(CoreError::Snapshot { .. })
        ));

        let mut bad = snap.clone();
        bad[4] = 99; // version LE byte 0
        assert!(matches!(
            restore_detector(&mut twin, &bad),
            Err(CoreError::Snapshot { .. })
        ));

        let mut bad = snap.clone();
        bad[8] = KIND_FLEET;
        assert!(matches!(
            restore_detector(&mut twin, &bad),
            Err(CoreError::Snapshot { .. })
        ));
    }

    #[test]
    fn version_1_envelopes_are_refused() {
        // Version 1 stored mode outputs without their parsimony
        // statistics; its bodies cannot be read as version 2.
        let mut twin = detector();
        let mut old = snapshot_detector(&twin);
        old[4..8].copy_from_slice(&1u32.to_le_bytes());
        match restore_detector(&mut twin, &old) {
            Err(CoreError::Snapshot { reason }) => {
                assert!(reason.contains("version 1"), "{reason}")
            }
            other => panic!("version-1 snapshot accepted: {other:?}"),
        }
    }

    #[test]
    fn version_2_envelopes_are_refused() {
        // Version 2 carried the engine's mode-bank activation schedule
        // after the last committed output; its bodies cannot be read as
        // version 3.
        let mut twin = detector();
        let mut old = snapshot_detector(&twin);
        old[4..8].copy_from_slice(&2u32.to_le_bytes());
        match restore_detector(&mut twin, &old) {
            Err(CoreError::Snapshot { reason }) => {
                assert!(reason.contains("version 2"), "{reason}")
            }
            other => panic!("version-2 snapshot accepted: {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut twin = detector();
        let mut snap = snapshot_detector(&twin);
        snap.push(0);
        assert!(matches!(
            restore_detector(&mut twin, &snap),
            Err(CoreError::Snapshot { .. })
        ));
    }

    #[test]
    fn truncation_is_rejected_not_panicked() {
        let mut twin = detector();
        let snap = snapshot_detector(&twin);
        for cut in [0, 3, 4, 8, 9, snap.len() / 2, snap.len() - 1] {
            assert!(
                restore_detector(&mut twin, &snap[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }
}
