"""Shared fixtures: parameter presets and small engines over the real bases.

The toy engines reuse the preset moduli at ring degree 64, which keeps every
congruence condition of the full-size rings while making keygen and the
homomorphic ops fast enough for per-test use.

Property tests run under a derandomized hypothesis profile: every run
replays the same examples, so a failure reproduces on the next run.
`pytest --hypothesis-profile default` restores random exploration.
"""

from dataclasses import replace

import pytest
from hypothesis import settings

from medha.heaan import Engine
from medha.params import get_param_set

TOY_DEGREE = 64

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def set1():
    return get_param_set("set1")


@pytest.fixture(scope="session")
def set2():
    return get_param_set("set2")


@pytest.fixture(scope="session")
def logreg_pset():
    return get_param_set("logreg")


@pytest.fixture(scope="session")
def toy_set1(set1):
    """set1's moduli at the toy degree: the parameter set of toy_native files."""
    return replace(set1, degree=TOY_DEGREE)


@pytest.fixture(scope="session")
def toy_set2(set2):
    """set2's moduli at the toy degree: the parameter set of toy_split2 files."""
    return replace(set2, degree=TOY_DEGREE)


@pytest.fixture(scope="session")
def toy_native(set1):
    eng = Engine(set1.base, TOY_DEGREE, "native", seed=5)
    eng.keygen(rotation_steps=(1, 3))
    return eng


@pytest.fixture(scope="session")
def toy_split(set1):
    eng = Engine(set1.base, TOY_DEGREE, "split", seed=5)
    eng.keygen(rotation_steps=(1, 3))
    return eng


@pytest.fixture(scope="session")
def toy_split2(set2):
    eng = Engine(set2.base, TOY_DEGREE, "split", seed=5)
    eng.keygen(rotation_steps=(1,))
    return eng
