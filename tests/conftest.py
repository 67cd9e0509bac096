import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from scorefit import stai_correlation_matrix, stai_loadings
from scorefit.simulation import LoadingPattern, SimulationConfig, run_simulation

ROOT = Path(__file__).resolve().parents[1]
# The golden-output tooling, imported by name as ``regen`` and ``replay``.
sys.path.insert(0, str(ROOT / "tests" / "golden"))

DESK_SCALE_SEED = 1234
DESK_SCALE_REPS = 1000


@functools.cache
def bench_module(name: str):
    """``bench/<name>.py`` as a module of its own, loaded once; it writes no bytecode under bench/."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def no_json_constant(name):
    """``parse_constant`` for ``json.loads``: strict readers take no NaN or Infinity."""
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="session")
def stai_sigma():
    return stai_correlation_matrix()


@pytest.fixture(scope="session")
def stai_lam():
    return stai_loadings()


@pytest.fixture(scope="session")
def table2():
    """The paper's Table 2 as the benchmark transcribes it: (n, l, p) -> (population,
    mean and SD of the sample SRMR) for the constant pattern, then the variable one."""
    return bench_module("reference").TABLE2


@pytest.fixture(scope="session")
def desk_scale_tables():
    """Full design at desk scale, both patterns; computed once per session."""
    tables = {}
    for pattern in (LoadingPattern.CONSTANT, LoadingPattern.VARIABLE):
        config = SimulationConfig(
            loading_pattern=pattern,
            replications=DESK_SCALE_REPS,
            seed=DESK_SCALE_SEED,
        )
        tables[pattern] = run_simulation(config)
    return tables
