import numpy as np
import pytest

from alphafractal import (
    FunctionSpec,
    Level,
    LevelSequence,
    ProblemConfig,
    bounds,
    build_partition,
    depend,
    engine,
)

DOMAIN = (0.0, 1.0)


@pytest.fixture
def running_cfg():
    """The worked example used throughout: f(x)=x, b(x)=x^2, alpha=0.4 on
    knots {0, 0.5, 1}, grid 1025."""
    p = build_partition([0.0, 0.5, 1.0])
    f = FunctionSpec.polynomial([0.0, 1.0], DOMAIN)
    b = FunctionSpec.polynomial([0.0, 0.0, 1.0], DOMAIN)
    a = FunctionSpec.constant(0.4, DOMAIN)
    return ProblemConfig(p, f, LevelSequence((Level((a, a), b),)))


@pytest.fixture
def trajectories(monkeypatch):
    """Depths of every backward trajectory run, through each module that
    looks the function up."""
    depths = []
    run = engine.backward_trajectory

    def counted(*args, **kwargs):
        depths.append(args[1])
        return run(*args, **kwargs)

    for module in (engine, bounds, depend):
        monkeypatch.setattr(module, "backward_trajectory", counted)
    return depths


@pytest.fixture
def germ_x():
    return FunctionSpec.polynomial([0.0, 1.0], DOMAIN)


@pytest.fixture
def base_x2():
    return FunctionSpec.polynomial([0.0, 0.0, 1.0], DOMAIN)


def make_config(knots, germ, alphas_per_level, bases, **kw):
    """alphas_per_level: list over levels of per-interval FunctionSpec lists."""
    p = build_partition(knots)
    levels = tuple(
        Level(tuple(alphas), base)
        for alphas, base in zip(alphas_per_level, bases)
    )
    return ProblemConfig(p, germ, LevelSequence(levels), **kw)


@pytest.fixture
def make_cfg():
    return make_config
