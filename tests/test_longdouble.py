"""The scan engine against the long-double reference of tests/longdouble.py.

Every other scan gate above N = 4 compares the engine with float code that
runs the same dicke.rotate, so they share its rounding; the reference shares
none.  The gate covers the CD and CSD built-ins, ara and xi at N = 40, 41,
400, 1000 and 1001, at mu = 0, 0.37 and pi/2, a few specs at the large N.
Its tolerances are the maxima measured over these cases with a margin of
about 3.
"""

import functools
import math

import numpy as np
import pytest

import longdouble
from catspin.observables import _Scanner
from catspin.protocols import Detection, ProtocolParams, builtin
from conftest import cached_ops

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(not longdouble.AVAILABLE, reason="long double is plain double here"),
]

MUS = (0.0, 0.37, math.pi / 2)

# |engine - reference|: CD signal over N, variance and dS/dphi over N^2;
# CSD population and variance absolutely, dS/dphi over N^2.  Measured
# maxima: CD 5.5e-15, 1.7e-15 and 2.0e-15, CSD 1.3e-15, 1.3e-15 and
# 1.1e-17.  They were 2.1e-13, 6.4e-15 and 1.2e-14 for CD while the squeeze
# phase mu m^2 (3.9e5 at N = 1001, of ulp 5.8e-11) rounded as one product
# and pi rotations took the float pi
CD_TOL = {"signal": 2e-14, "variance": 6e-15, "pgs": 6e-15}
CSD_TOL = {"signal": 8e-15, "variance": 8e-15, "pgs": 6e-16}


def phis_for(n: int) -> np.ndarray:
    """5 points over [-0.3, 0.3] and 3 near phi = 0, where the SDS falls
    into the rounding band."""
    return np.sort(np.concatenate([np.linspace(-0.3, 0.3, 5), [-1e-3, -1e-7, 4e-4]]))


def cases():
    """(n, spec, mu): every built-in, ara, xi, detection and mu at N = 40 and
    41; at 400 SCAIN and SCAC with each ara at mu = 0.37, and SCAIN at 0
    and pi/2; at 1000 and 1001 a few specs of the large-N scan paths."""
    for n in (40, 41):
        for pid in ("crain", "scain", "cac", "cosac", "scac"):
            squeezed = pid in ("scain", "scac")
            for ara in "xy" if squeezed else "x":
                for xi in (1, -1) if squeezed else (-1,):
                    for det in ("cd", "csd"):
                        spec = builtin(pid, ProtocolParams(ara=ara, xi=xi, detection=Detection(det)))
                        for mu in MUS if squeezed else (None,):
                            yield n, spec, mu
    for pid in ("scain", "scac"):
        for ara in "xy":
            yield 400, builtin(pid, ProtocolParams(ara=ara, xi=1)), 0.37
    for mu in (0.0, math.pi / 2):
        yield 400, builtin("scain"), mu
    scain = functools.partial(builtin, "scain")
    yield 1000, scain(ProtocolParams(xi=1)), math.pi / 2
    yield 1000, scain(ProtocolParams(ara="y", xi=1)), 0.37
    yield 1000, builtin("crain"), None
    yield 1000, scain(ProtocolParams(detection=Detection("csd"))), 0.37
    yield 1001, scain(ProtocolParams(xi=1)), math.pi / 2
    yield 1001, scain(ProtocolParams(ara="y")), 0.37
    yield 1001, builtin("scac", ProtocolParams(xi=1)), 0.37


def errors(n: int, spec, mu) -> dict:
    """The engine's errors against the reference over phis_for(n), scaled as
    the tolerances are, and those of the SDS over N and of Lambda over N
    where the reference's SDS lies above 1e-6 N, out of the rounding band."""
    ops, phis = cached_ops(n), phis_for(n)
    ((signal, sds, pgs),) = _Scanner(spec, ops.dims, ops, phis).scan([mu])
    want = longdouble.reference(spec, n, phis, mu)
    got = [np.asarray(column, dtype=longdouble.LD) for column in (signal, sds, pgs)]
    cd = spec.detection.kind == "cd"
    clear = want[1] > 1e-6 * n  # where the engine's SDS may be exactly 0, Lambda is not read
    lam = np.abs(got[2][clear] / got[1][clear] - want[2][clear] / want[1][clear]) / n
    return {key: float(np.max(value)) for key, value in (
        ("signal", np.abs(got[0] - want[0]) / (n if cd else 1)),
        ("variance", np.abs(got[1] ** 2 - want[1] ** 2) / (n**2 if cd else 1)),
        ("pgs", np.abs(got[2] - want[2]) / n**2),
        ("sds", np.abs(got[1] - want[1]) / n),
        ("lambda", lam if lam.size else np.zeros(1)),
    )}


def test_reference_meets_the_scain_laws():
    # -(N/2) cos(N phi) and its gradient at mu = pi/2, even N; CSD cos^2(N phi/2)
    phis = phis_for(1000).astype(longdouble.LD)
    signal, _, pgs = longdouble.reference(builtin("scain"), 1000, phis)
    assert np.max(np.abs(signal + 500 * np.cos(1000 * phis))) <= 1e-17 * 1000
    assert np.max(np.abs(pgs - 500000 * np.sin(1000 * phis))) <= 1e-17 * 1000**2
    spec = builtin("scain", ProtocolParams(detection=Detection("csd")))
    p = longdouble.reference(spec, 40, phis)[0]
    assert np.max(np.abs(p - np.cos(20 * phis) ** 2)) <= 1e-17


@pytest.mark.parametrize("n", [40, 41, 400, 1000, 1001])
def test_engine_matches_the_long_double_reference(n):
    for m, spec, mu in cases():
        if m == n:
            found = errors(n, spec, mu)
            tol = CD_TOL if spec.detection.kind == "cd" else CSD_TOL
            for key, bound in tol.items():
                assert found[key] <= bound, (spec, mu, key, found[key])
