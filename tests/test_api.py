"""The package's public surface is exactly ``__all__``."""

import inspect

import alphafractal


def test_public_names_equal_all():
    bound = {name for name, value in vars(alphafractal).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    # errors is the one submodule exported by name
    assert bound == set(alphafractal.__all__) - {"errors"}
    for name in alphafractal.__all__:
        assert getattr(alphafractal, name, None) is not None, name
