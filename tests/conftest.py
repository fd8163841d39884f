import numpy as np
import pytest

from lorentzlab import (de_sitter, de_sitter_weighted, einstein_static,
                        frw_toy, minkowski, run_point_congruence)
from lorentzlab.manifold import MetricField


@pytest.fixture(scope="session")
def mink4():
    return minkowski(4)


@pytest.fixture(scope="session")
def ds4():
    return de_sitter(4)


@pytest.fixture(scope="session")
def ds4w():
    return de_sitter_weighted(4, K=2.0)


@pytest.fixture(scope="session")
def static4():
    return einstein_static(4)


@pytest.fixture(scope="session")
def frw4():
    return frw_toy(4)


@pytest.fixture(scope="session")
def quartic_2d():
    """2D chart metric -dt^2 + t^4 dx^2 on t > 0 (no analytic callbacks)."""
    def matrix(p):
        return np.array([[-1.0, 0.0], [0.0, p[0] ** 4]])
    return MetricField(dim=2, matrix=matrix,
                       domain=((0.05, np.inf), (-np.inf, np.inf)),
                       name="quartic2d")


@pytest.fixture
def ode_solves(monkeypatch):
    """A list that gains an entry, the span, for every system an ode_solve
    solves: one for a vector y0, one per lane for a stack of them."""
    from lorentzlab import congruence, jacobi, numerics
    solves = []

    def counted(rhs, span, y0, *args, **kwargs):
        if np.ndim(y0) == 2:
            solves.extend(map(tuple, np.broadcast_to(span, (len(y0), 2))))
        else:
            solves.append(span)
        return numerics.ode_solve(rhs, span, y0, *args, **kwargs)
    for module in (congruence, jacobi):
        monkeypatch.setattr(module, "ode_solve", counted)
    return solves


@pytest.fixture(scope="session")
def ds4_comoving_run(ds4):
    """Shared from-a-point congruence along the de Sitter comoving geodesic."""
    spec = ds4.geodesic("comoving")
    return run_point_congruence(ds4.metric, spec.p0, spec.v0, spec.span,
                                f=ds4.weight,
                                diag_ts=np.linspace(-0.5, 2.0, 801))


@pytest.fixture(scope="session")
def ds4w_comoving_run(ds4w):
    spec = ds4w.geodesic("comoving")
    return run_point_congruence(ds4w.metric, spec.p0, spec.v0, spec.span,
                                f=ds4w.weight,
                                diag_ts=np.linspace(-0.5, 2.0, 1601))
