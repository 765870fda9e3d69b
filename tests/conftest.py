import pytest

from mfg_newton import sparse_linalg as sla


@pytest.fixture
def plan_builds(monkeypatch):
    """Start from an empty plan cache and record every sweep plan built."""
    built, build = [], sla._SweepPlan

    def counting(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(sla, "_PLANS", {})
    monkeypatch.setattr(sla, "_SweepPlan", counting)
    return built


@pytest.fixture
def map_builds(monkeypatch):
    """Start from an empty grid cache and record every pattern map and every
    mask index the solver builds, as ``{"maps": [...], "masks": [...]}``."""
    from mfg_newton import mfg_solver as solver

    built = {"maps": [], "masks": []}

    def counting(name, build):
        def record(*args):
            built[name].append(build(*args))
            return built[name][-1]
        return record

    solver._stencils.cache_clear()
    monkeypatch.setattr(solver, "_Stencils", counting("maps", solver._Stencils))
    monkeypatch.setattr(solver, "_Masked", counting("masks", solver._Masked))
    yield built
    solver._stencils.cache_clear()
