import json
import re

import numpy as np
import pytest

from mfg_newton import cli


class Literal:
    """A JSON number that ``write_config`` writes as is, such as 1e400,
    which json.dumps never writes."""

    def __init__(self, text):
        self.text = text


def write_config(tmp_path, name="config.json", **overrides):
    base = {
        "experiment": "newton-rate",
        "grid": {"dim": 1, "nx": 16, "nt": 8, "T": 1.0},
        "hamiltonian": {"variant": "congestion", "alpha": 1.0, "h": "constant"},
        "coupling": {"local": "sigmoid"},
        "newton": {"max_iter": 30, "residual_tol": 1e-10},
        "epsilons": [0.01],
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    path = tmp_path / name
    text = json.dumps(base, default=lambda literal: f"<literal {literal.text}>")
    path.write_text(re.sub(r'"<literal (.*?)>"', r"\1", text))
    return path


def strip_wall_ms(text):
    out = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("iter,"):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return "\n".join(out)


# one out-of-bounds value per bound the solver's constructors also enforce;
# the config check must catch each before the constructor raises
OUT_OF_BOUNDS = [
    ("grid.nx", {"grid": {"dim": 1, "nx": 2, "nt": 8, "T": 1.0}}),
    ("grid.dim", {"grid": {"dim": 3, "nx": 16, "nt": 8, "T": 1.0}}),
    ("grid.nt", {"grid": {"dim": 1, "nx": 16, "nt": 1, "T": 1.0}}),
    ("grid.T", {"grid": {"dim": 1, "nx": 16, "nt": 8, "T": 0}}),
    ("hamiltonian.alpha", {"hamiltonian": {"alpha": 0}}),
    ("coupling.power_alpha", {"coupling": {"local": "power", "power_alpha": 1.5}}),
    ("coupling.kernel.sigma", {"coupling": {"kernel": {"type": "gaussian", "sigma": 0}}}),
    # a Gaussian wider than the unit torus: its image sum would run ~6 sigma terms
    pytest.param("coupling.kernel.sigma", {"coupling": {"kernel": {"type": "gaussian", "sigma": 1e9}}},
                 id="coupling.kernel.sigma=1e9"),
    ("coupling.kernel_g.sigma", {"coupling": {"kernel": {"type": "gaussian", "sigma": 0.1},
                                              "kernel_g": {"type": "gaussian", "sigma": 1.5}}}),
    # narrower than the floor: 1/sigma^2 would overflow to a NaN kernel or divide by zero
    pytest.param("coupling.kernel.sigma", {"coupling": {"kernel": {"type": "gaussian", "sigma": 1e-200}}},
                 id="coupling.kernel.sigma=1e-200"),
    pytest.param("coupling.kernel_g.sigma",
                 {"coupling": {"kernel": {"type": "gaussian", "sigma": 0.1},
                               "kernel_g": {"type": "gaussian", "sigma": 1e-160}}},
                 id="coupling.kernel_g.sigma=1e-160"),
    ("newton.theta", {"newton": {"theta": 1.5}}),
    ("newton.max_iter", {"newton": {"max_iter": 0}}),
    ("newton.residual_tol", {"newton": {"residual_tol": 0}}),
    # malformed input: a config error naming the key, never a traceback
    ("grid", {"grid": 5}),
    ("newton", {"newton": None}),
    ("coupling.kernel", {"coupling": {"kernel": 3}}),
    ("hamiltonian", {"hamiltonian": []}),
] + [
    pytest.param(key, overrides, id=f"{key}={text}")
    for text in ("Infinity", "NaN", "1e400")  # Python reads them as inf, nan, inf
    for key, overrides in (
        ("grid.nx", {"grid": {"dim": 1, "nx": Literal(text), "nt": 8, "T": 1.0}}),
        ("grid.T", {"grid": {"dim": 1, "nx": 16, "nt": 8, "T": Literal(text)}}),
        ("epsilons[0]", {"epsilons": [Literal(text)]}))
]


class TestValidation:
    @pytest.mark.parametrize("key, overrides", OUT_OF_BOUNDS,
                             ids=[case[0] if len(case) == 2 else None  # pytest.param has its id
                                  for case in OUT_OF_BOUNDS])
    def test_small_nx_exits_2_citing_key(self, tmp_path, capsys, key, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert f"config error: {key}:" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid={"dim": 1, "nx": 16, "nt": 8, "T": 1.0,
                                           "spacing": 0.1})
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "grid.spacing" in capsys.readouterr().err

    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, plot=True)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "plot" in capsys.readouterr().err

    def test_unknown_experiment(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="frobnicate")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_epsilons(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epsilons=[0.01, -1.0])
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "epsilons[1]" in capsys.readouterr().err

    def test_nonlocal_rate_needs_kernel(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="nonlocal-rate",
                           hamiltonian={"variant": "separable_quadratic"})
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "kernel" in capsys.readouterr().err

    def test_hessian_sweep_needs_congestion(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="hessian-sweep",
                           hamiltonian={"variant": "separable_quadratic", "alpha": 2.5})
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "hamiltonian.variant" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["is_a_file", "under_a_file"])
    def test_output_dir_that_cannot_be_made_exits_2(self, tmp_path, capsys, under):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "out" if under else tmp_path / "taken"
        cfg = write_config(tmp_path, output_dir=str(out))
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "config error: output_dir: " in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == ""

    def test_local_and_kernel_conflict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coupling={
            "local": "sigmoid", "kernel": {"type": "gaussian", "sigma": 0.1}})
        assert cli.main(["run", "--config", str(cfg)]) == 2


class TestExperiments:
    def test_newton_rate_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("experiment,sub_run,method")
        row = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert row["status"] == "ok"
        assert float(row["fitted_q"]) > 1.0
        assert int(row["iterations"]) >= 2
        history = (out / "history.csv").read_text()
        assert history.splitlines()[0].startswith("iter,")
        assert "# fit: q=" in history
        assert (out / "fields_u_eps0.csv").exists()
        assert (out / "fields_m_eps0.csv").exists()

    def test_hessian_sweep_alpha3_has_unsatisfied_rows(self, tmp_path):
        cfg = write_config(tmp_path, experiment="hessian-sweep",
                           hamiltonian={"variant": "congestion", "alpha": 3.0,
                                        "h": "constant"})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "hessian_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,m,p,min_eig,satisfied"
        unsatisfied = [l for l in lines[1:] if l.endswith("false")]
        assert unsatisfied
        assert all(float(l.split(",")[2]) != 0.0 for l in unsatisfied)

    def test_manufactured_verify(self, tmp_path):
        cfg = write_config(tmp_path, experiment="manufactured-verify")
        assert cli.main(["run", "--config", str(cfg)]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        row = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert float(row["final_residual"]) <= 1e-13

    def test_lemma_stability(self, tmp_path):
        cfg = write_config(tmp_path, experiment="lemma-stability", draws=3)
        assert cli.main(["run", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "stability.csv").read_text().splitlines()
        assert lines[0] == "draw,seed,v_c10,rho_c0,ratio"
        assert len(lines) == 4

    def test_nonlocal_rate(self, tmp_path):
        cfg = write_config(
            tmp_path, experiment="nonlocal-rate",
            hamiltonian={"variant": "separable_quadratic"},
            coupling={"kernel": {"type": "gaussian", "sigma": 0.1}})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "kernel_f.csv").exists()

    @pytest.mark.parametrize("kernel_g, shared", [(None, True), (0.2, False)])
    def test_one_kernel_unless_kernel_g_differs(self, tmp_path, kernel_g, shared):
        coupling = {"kernel": {"type": "gaussian", "sigma": 0.1}}
        if kernel_g is not None:
            coupling["kernel_g"] = {"type": "gaussian", "sigma": kernel_g}
        cfg = cli.load_config(write_config(
            tmp_path, experiment="nonlocal-rate",
            hamiltonian={"variant": "separable_quadratic"}, coupling=coupling))
        assert (cfg.coupling.g is cfg.coupling.f) == shared
        assert np.array_equal(cfg.coupling.g.conv, cfg.coupling.f.conv) == shared

    def test_fixed_point_compare(self, tmp_path):
        cfg = write_config(tmp_path, experiment="fixed-point-compare",
                           newton={"max_iter": 200, "residual_tol": 1e-9,
                                   "theta": 0.5})
        assert cli.main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        summary = (out / "summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in summary[1:]]
        iters = {r["method"]: int(r["iterations"]) for r in rows}
        assert iters["newton"] < iters["fixed-point"]
        assert (out / "history_newton_eps0.csv").exists()
        assert (out / "history_fixed_point_eps0.csv").exists()

    def test_solver_error_exits_3_and_is_recorded(self, tmp_path):
        # every epsilon sweep names the failed sub-run by its tag and epsilon,
        # and keeps the partial history (initial state and the one step)
        for experiment, history_name, extra in (
            ("newton-rate", "history.csv", {}),
            ("fixed-point-compare", "history_newton_eps0.csv", {}),
            ("nonlocal-rate", "history.csv",
             {"hamiltonian": {"variant": "separable_quadratic"},
              "coupling": {"kernel": {"type": "gaussian", "sigma": 0.1}}}),
        ):
            out = tmp_path / experiment
            cfg = write_config(tmp_path, experiment=experiment, epsilons=[0.02],
                               output_dir=str(out),
                               newton={"max_iter": 1, "residual_tol": 1e-14}, **extra)
            assert cli.main(["run", "--config", str(cfg)]) == 3
            summary = (out / "summary.csv").read_text().splitlines()
            row = dict(zip(summary[0].split(","), summary[1].split(",")))
            assert row["error"] == "MaxIterExceededError"
            assert row["status"] == "error"
            assert row["sub_run"] == "eps0"
            assert row["method"] == "newton"
            assert float(row["epsilon"]) == 0.02
            history = (out / history_name).read_text().splitlines()
            assert history[0].startswith("iter,")
            assert [line.split(",")[0] for line in history[1:]] == ["0", "1"]

    def test_fixed_point_budget_keeps_its_partial_history(self, tmp_path):
        # Newton converges within the budget, Picard does not
        cfg = write_config(tmp_path, experiment="fixed-point-compare",
                           newton={"max_iter": 5, "residual_tol": 1e-10})
        assert cli.main(["run", "--config", str(cfg)]) == 3
        out = tmp_path / "out"
        summary = (out / "summary.csv").read_text().splitlines()
        rows = [dict(zip(summary[0].split(","), line.split(","))) for line in summary[1:]]
        assert len(rows) == 2
        newton, failed = rows
        assert (newton["sub_run"], newton["method"], newton["status"]) == ("eps0", "newton", "ok")
        assert 1 <= int(newton["iterations"]) <= 5
        assert float(newton["final_residual"]) <= 1e-10
        assert (failed["sub_run"], failed["method"], failed["status"], failed["error"]) == \
            ("eps0", "fixed-point", "error", "MaxIterExceededError")
        history = (out / "history_fixed_point_eps0.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in history[1:]] == ["0", "1", "2", "3", "4", "5"]

    def test_unfittable_sub_run_keeps_its_evidence(self, tmp_path):
        # eps = 5e-3 converges with only two errors above the fit floor
        cfg = write_config(tmp_path, epsilons=[0.01, 0.005])
        assert cli.main(["run", "--config", str(cfg)]) == 3
        out = tmp_path / "out"
        summary = (out / "summary.csv").read_text().splitlines()
        rows = [dict(zip(summary[0].split(","), line.split(","))) for line in summary[1:]]
        assert [r["sub_run"] for r in rows] == ["eps0", "eps1"]
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "no_fit"
        assert rows[1]["error"] == "InsufficientDataError"
        assert float(rows[1]["epsilon"]) == 0.005
        assert int(rows[1]["iterations"]) >= 1
        assert float(rows[1]["final_residual"]) <= 1e-10
        assert rows[1]["fitted_q"] == ""
        history = (out / "history_eps1.csv").read_text().splitlines()
        assert history[0].startswith("iter,")
        assert len(history) >= 3
        assert not any(line.startswith("# fit") for line in history)

    # each overflows a residual: at iterate 0, the start of a solve, of a
    # perturbation of 1e160 and of a horizon of 1e300, and in make_manufactured
    # before any solve
    @pytest.mark.parametrize("overrides, where", [
        ({"experiment": "nonlocal-rate", "epsilons": [1e160],
          "hamiltonian": {"variant": "separable_quadratic"},
          "coupling": {"kernel": {"type": "gaussian", "sigma": 0.1}}},
         "sub-run eps0 failed: residual r_u is not finite (iterate 0, initial state)"),
        ({"grid": {"dim": 1, "nx": 16, "nt": 8, "T": 1e300}},
         "sub-run eps0 failed: residual r_u is not finite (iterate 0, initial state)"),
        ({"coupling": {"local": "power", "power_alpha": 1e300}},
         "solver error: residual r_u is not finite"),
    ], ids=["nonlocal-rate-eps1e160", "T=1e300", "power_alpha=1e300"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow, the case itself
    def test_non_finite_residual_exits_3(self, tmp_path, capsys, overrides, where):
        cfg = write_config(tmp_path, **overrides)
        assert cli.main(["run", "--config", str(cfg)]) == 3
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        row = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert (row["status"], row["error"]) == ("error", "DomainError")
        assert where in capsys.readouterr().err

    def test_iterative_linear_method_takes_the_direct_steps(self, tmp_path):
        iterations = []
        for method in ("direct", "iterative"):
            out = tmp_path / method
            cfg = write_config(tmp_path, output_dir=str(out),
                               newton={"residual_tol": 1e-10, "linear_method": method})
            assert cli.main(["run", "--config", str(cfg)]) == 0
            summary = (out / "summary.csv").read_text().splitlines()
            iterations.append(dict(zip(summary[0].split(","), summary[1].split(",")))["iterations"])
        assert iterations[0] == iterations[1] == "3"

    def test_start_on_the_root_is_no_fit(self, tmp_path):
        # eps = 1e-300 leaves the start on the root: err_sum is exactly 0.0
        cfg = write_config(tmp_path, epsilons=[1e-300])
        assert cli.main(["run", "--config", str(cfg)]) == 3
        out = tmp_path / "out"
        summary = (out / "summary.csv").read_text().splitlines()
        row = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert (row["status"], row["error"]) == ("no_fit", "InsufficientDataError")
        assert row["iterations"] == "0"
        history = (out / "history.csv").read_text().splitlines()
        assert history[0].startswith("iter,") and history[1].split(",")[5] == "0"


class TestDeterminism:
    def test_identical_outputs_modulo_wall_clock(self, tmp_path):
        cfg1 = write_config(tmp_path, name="c1.json",
                            output_dir=str(tmp_path / "out1"))
        cfg2 = write_config(tmp_path, name="c2.json",
                            output_dir=str(tmp_path / "out2"))
        assert cli.main(["run", "--config", str(cfg1)]) == 0
        assert cli.main(["run", "--config", str(cfg2)]) == 0
        o1, o2 = tmp_path / "out1", tmp_path / "out2"
        assert (o1 / "summary.csv").read_text() == (o2 / "summary.csv").read_text()
        assert strip_wall_ms((o1 / "history.csv").read_text()) == \
            strip_wall_ms((o2 / "history.csv").read_text())
        for name in ("fields_u_eps0.csv", "fields_m_eps0.csv"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()

    def test_stability_seeded(self, tmp_path):
        cfg1 = write_config(tmp_path, name="c1.json", experiment="lemma-stability",
                            draws=2, seed=7, output_dir=str(tmp_path / "s1"))
        cfg2 = write_config(tmp_path, name="c2.json", experiment="lemma-stability",
                            draws=2, seed=7, output_dir=str(tmp_path / "s2"))
        assert cli.main(["run", "--config", str(cfg1)]) == 0
        assert cli.main(["run", "--config", str(cfg2)]) == 0
        assert (tmp_path / "s1" / "stability.csv").read_text() == \
            (tmp_path / "s2" / "stability.csv").read_text()


class TestConfinement:
    def test_all_artifacts_inside_output_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "only_here"))
        before = set(workdir.iterdir())
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert set(workdir.iterdir()) == before
        assert (tmp_path / "only_here" / "summary.csv").exists()
