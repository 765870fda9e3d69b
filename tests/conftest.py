import pytest

from mfg_newton import sparse_linalg as sla


@pytest.fixture
def plan_builds(monkeypatch):
    """Start from an empty grid cache, so that no mask keeps a plan, and
    record every sweep plan built."""
    from mfg_newton import mfg_solver as solver

    built, build = [], sla.SweepPlan

    def counting(*args):
        built.append(build(*args))
        return built[-1]

    solver._stencils.cache_clear()
    monkeypatch.setattr(sla, "SweepPlan", counting)
    yield built
    solver._stencils.cache_clear()


@pytest.fixture
def set_band_max(monkeypatch):
    """``set_band_max(value)`` sets ``sparse_linalg.BAND_MAX`` with an empty grid
    cache, so that no mask's plan built under another value is reused; the
    cache is emptied again on exit."""
    from mfg_newton import mfg_solver as solver

    def setting(value):
        solver._stencils.cache_clear()
        monkeypatch.setattr(sla, "BAND_MAX", value)

    yield setting
    solver._stencils.cache_clear()


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
