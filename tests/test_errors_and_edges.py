import numpy as np
import pytest

from lorentzlab import (integrate_jacobi, kinematics, minkowski,
                        parallel_frame, raychaudhuri_residual)
from lorentzlab.congruence import _gram_schmidt_spacelike
from lorentzlab.errors import FrameDegeneracy, InsufficientSamples
from lorentzlab.scenarios import linear_time_f


def test_raychaudhuri_requires_enough_samples():
    traj = integrate_jacobi(np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3),
                            (0.0, 1.0))
    diag = kinematics(traj, ts=np.linspace(0.4, 0.6, 6))
    with pytest.raises(InsufficientSamples):
        raychaudhuri_residual(diag, np.zeros(6), 2.0)


def test_gram_schmidt_pivot_guard():
    g = np.eye(3)
    v = np.array([1.0, 0.0, 0.0])
    # only one independent direction available for two slots
    with pytest.raises(FrameDegeneracy):
        _gram_schmidt_spacelike(g, [v, v.copy()], [], 2)


def test_null_weighted_curvature_uses_quotient_dimension(mink4):
    # flat space, linear weight along the null geodesic t = x = lambda:
    # (f o beta)' = a and Rbar_f = (a/(n-2))^2 * E on the 2d quotient
    a = 1.2
    frame = parallel_frame(mink4.metric, np.zeros(4), [1, 1, 0, 0], (0.0, 4.0))
    Rf = frame.curvature(2.0, linear_time_f(a))
    assert Rf.shape == (2, 2)
    assert np.max(np.abs(Rf - (a / 2.0) ** 2 * np.eye(2))) < 1e-12


def test_null_kinematics_expansion(mink4):
    # from-a-point null congruence in flat space: theta = (n-2)/t
    frame = parallel_frame(mink4.metric, np.zeros(4), [1, 1, 0, 0], (0.0, 6.0))
    traj = integrate_jacobi(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2),
                            (0.0, 6.0))
    ts = np.linspace(0.5, 6.0, 201)
    diag = kinematics(traj, ts=ts, n=4)
    assert np.max(np.abs(diag.theta_f - 2.0 / ts)) < 1e-10


def test_null_frame_in_two_dimensions_is_typed_error():
    # the null quotient bundle of a 2-dimensional spacetime is empty
    mink2 = minkowski(2)
    assert [s.label for s in mink2.geodesics] == ["comoving"]
    with pytest.raises(FrameDegeneracy):
        parallel_frame(mink2.metric, np.zeros(2), [1.0, 1.0], (0.0, 5.0))
