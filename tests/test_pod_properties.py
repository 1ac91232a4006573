"""Property-based tests of the POD invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.pod import fit_pod, project_coefficients, projection_error, reconstruct

matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(6, 24), st.integers(4, 12)),
    elements=st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)


def _near_rank_deficient_example():
    """Mostly-constant matrix whose third eigenvalue sits ~1e-10 below the
    leading one — small enough that the method-of-snapshots scaling
    amplifies eigenvector noise past 1e-6 without the QR polish."""
    m = np.full((6, 11), 1.0001)
    m[0, 0] = 0.0
    m[0, 2] = 2.0
    m[1, 0] = 1.0
    m[3, 1] = 7.0
    return m


def _single_subnormal_example():
    m = np.zeros((6, 4))
    m[0, 0] = 1.5018998e-156
    return m


def _subnormal_energy_example():
    """``lambda_max`` itself is subnormal (~9.6e-319): relative floors
    taken on the raw spectrum underflow to 0 and keep noise as a mode."""
    m = np.zeros((6, 5))
    m[0, 0] = 1.0961934825389103e-159
    return m


@settings(max_examples=40, deadline=None, print_blob=True)
@given(snapshots=matrices)
@example(snapshots=_near_rank_deficient_example())
@example(snapshots=_single_subnormal_example())
@example(snapshots=_subnormal_energy_example())
def test_modes_orthonormal(snapshots):
    basis = fit_pod(snapshots)
    gram = basis.modes.T @ basis.modes
    np.testing.assert_allclose(gram, np.eye(basis.n_modes), atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(snapshots=matrices)
def test_projection_error_in_unit_interval(snapshots):
    basis = fit_pod(snapshots, 2)
    err = projection_error(basis, snapshots)
    assert -1e-9 <= err <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(snapshots=matrices)
def test_full_rank_reconstruction(snapshots):
    basis = fit_pod(snapshots)
    coeff = project_coefficients(basis, snapshots)
    recon = reconstruct(basis, coeff)
    scale = max(1.0, np.abs(snapshots).max())
    np.testing.assert_allclose(recon, snapshots, atol=1e-6 * scale)


@settings(max_examples=40, deadline=None)
@given(snapshots=matrices)
def test_energy_conservation(snapshots):
    """Total eigenvalue mass equals the centered Frobenius norm squared."""
    basis = fit_pod(snapshots)
    centered = snapshots - snapshots.mean(axis=1, keepdims=True)
    assert basis.energies.sum() == pytest.approx(
        float(np.sum(centered ** 2)), rel=1e-8, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(snapshots=matrices, scale=st.floats(0.1, 10.0))
def test_projection_error_scale_invariant(snapshots, scale):
    """Relative error is invariant to uniform scaling of the data."""
    b1 = fit_pod(snapshots, 2)
    b2 = fit_pod(snapshots * scale, 2)
    e1 = projection_error(b1, snapshots)
    e2 = projection_error(b2, snapshots * scale)
    assert e1 == pytest.approx(e2, rel=1e-6, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(snapshots=matrices)
def test_coefficients_of_training_data_uncorrelated(snapshots):
    """POD coefficients of the fitted snapshots are orthogonal rows
    (diagonal covariance) — the defining property of POD."""
    basis = fit_pod(snapshots)
    coeff = project_coefficients(basis, snapshots)
    cov = coeff @ coeff.T
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() <= 1e-6 * max(1.0, np.abs(cov).max())
