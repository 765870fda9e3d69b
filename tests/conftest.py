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
