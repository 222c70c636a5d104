import os

import numpy as np
import pytest

from platoon_stab import (
    Configuration,
    ControllerSpec,
    ControllerType,
    PlatoonParams,
    Strategy,
)

AUT = ControllerType.AUTONOMOUS
NON = ControllerType.NON_AUTONOMOUS
UNI = Configuration.UNIDIRECTIONAL
BI = Configuration.BIDIRECTIONAL
CS = Strategy.CONSTANT_SPACING
VS = Strategy.VARIABLE_SPACING
VTH = Strategy.VAR_TIME_HEADWAY

# One canonical combination per supported dynamic model (the non-autonomous
# row ignores configuration/strategy, so a single representative suffices).
SUPPORTED_COMBOS = (
    (AUT, UNI, CS),
    (AUT, UNI, VS),
    (AUT, UNI, VTH),
    (AUT, BI, CS),
    (AUT, BI, VS),
    (NON, UNI, CS),
)


def make_params(**overrides) -> PlatoonParams:
    values = dict(n=10, m=1000.0, k=2000.0, c=400.0, h=1.0, ch=1.0,
                  vd=25.0, h0=1.0, ca=50.0, cd=50.0)
    values.update(overrides)
    return PlatoonParams(**values)


def make_spec(ct=AUT, cf=UNI, st=CS, params=None, **overrides) -> ControllerSpec:
    return ControllerSpec(ct, cf, st, params or make_params(**overrides))


def random_params(rng: np.random.Generator, n_lo=2, n_hi=20) -> PlatoonParams:
    return PlatoonParams(
        n=int(rng.integers(n_lo, n_hi)),
        m=float(rng.uniform(50.0, 5000.0)),
        k=float(rng.uniform(50.0, 8000.0)),
        c=float(rng.uniform(5.0, 2000.0)),
        h=float(rng.uniform(0.1, 3.0)),
        ch=float(rng.uniform(0.001, 2.0)),
        vd=float(rng.uniform(1.0, 40.0)),
        h0=float(rng.uniform(0.1, 3.0)),
        ca=float(rng.uniform(1.0, 500.0)),
        cd=float(rng.uniform(1.0, 500.0)),
    )


@pytest.fixture
def base_params() -> PlatoonParams:
    return make_params()


@pytest.fixture
def const_spacing_spec(base_params) -> ControllerSpec:
    return ControllerSpec(AUT, UNI, CS, base_params)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process behind (pid {pid or 'still running'})")
