import os

import numpy as np
import pytest

from spdfp import harness
from spdfp.cli import main
from spdfp.harness import load_ground_truth, load_problem


def test_synth_truth_run_pipeline(tmp_path, capsys, monkeypatch):
    base = tmp_path / "prob"
    assert main(["synth", "--out", str(base), "--n", "60", "--d", "10",
                 "--seed", "3", "--mu", "0.1"]) == 0
    spec = load_problem(str(base) + ".problem")
    assert spec.dataset.samples.shape == (60, 10)

    assert main(["truth", "--problem", str(base) + ".problem",
                 "--iters", "1500"]) == 0
    gt = load_ground_truth(str(base) + ".problem.truth.npz", spec)
    assert gt.residual < 1e-8

    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = prob.problem\n"
                   "solvers = spdfp2(c=1.0,alpha=0.7,p=10)\n"
                   "repetitions = 2\n"
                   "epochs = 3\n"
                   "output = out/run\n"
                   "master_seed = 5\n")

    def no_fresh_truth(*args, **kwargs):
        raise AssertionError("run computed a truth instead of loading the cached one")

    monkeypatch.setattr(harness, "compute_ground_truth", no_fresh_truth)
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    rows_path = tmp_path / "out" / "run.csv"
    mean_path = tmp_path / "out" / "run_mean.csv"
    assert rows_path.exists() and mean_path.exists()
    assert str(rows_path) in out
    # cached truth was used: header records its own certificate
    header = rows_path.read_text().splitlines()[1]
    assert f"iterations={gt.iterations} residual={gt.residual!r} " in header


def test_bound_check_passing_grid(capsys):
    assert main(["bound-check", "--alphas", "0.3,0.6,0.9", "--cs", "0.5,1,2",
                 "--taus", "0.1,1", "--s-inits", "0,1", "--k-max", "2000"]) == 0
    out = capsys.readouterr().out
    assert "total violations: 0" in out
    assert "FAIL" not in out


def test_bound_check_reports_known_violating_cell(capsys):
    # the printed alpha=1 closed form fails against the extremal sequence
    # for c < 1; the checker must say so rather than hide it
    assert main(["bound-check", "--alphas", "1.0", "--cs", "0.5",
                 "--taus", "0.1", "--s-inits", "0", "--k-max", "500"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_run_rejects_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem = synth:n=20,d=5\nsolvers = pdfp()\nrepetitions = 1\n"
                   "epochs = 0\noutput = o\nmaster_seed = 1\nextra = 2\n")
    with pytest.raises(ValueError, match="extra"):
        main(["run", "--config", str(cfg)])


def test_synth_command_and_synth_sources_share_their_defaults(tmp_path, monkeypatch):
    # both read harness.SYNTH_DEFAULTS, so one edit there changes both
    monkeypatch.setattr(harness, "SYNTH_DEFAULTS",
                        {**harness.SYNTH_DEFAULTS, "n": 12, "d": 4, "seed": 5})
    assert main(["synth", "--out", str(tmp_path / "p")]) == 0
    written = load_problem(str(tmp_path / "p.problem"))
    source = harness.resolve_problem("synth:mu=0.1")
    assert written.dataset.samples.shape == (12, 4)
    np.testing.assert_array_equal(written.dataset.samples.to_dense(),
                                  source.dataset.samples.to_dense())
    np.testing.assert_array_equal(written.dataset.labels, source.dataset.labels)
    assert (written.l2_weight, written.composite_weight) == (source.l2_weight,
                                                             source.composite_weight)


def test_bound_check_names_the_flag_of_a_bad_value():
    for flag in ("--alphas", "--cs", "--taus", "--s-inits"):
        with pytest.raises(ValueError, match=f"bound-check: {flag} = 'abc' is not a finite float"):
            main(["bound-check", flag, "0.5,abc", "--k-max", "10"])


def desk_run_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = prob.problem\nsolvers = spdfp2(p=10)\nrepetitions = 1\n"
                   "epochs = 2\noutput = out/run\nmaster_seed = 5\n")
    return str(cfg)


def test_run_refuses_the_truth_of_another_problem(tmp_path):
    # the truth of the seed-7 problem stays next to the seed-9 one written
    # over it; its fingerprint no longer matches
    base = str(tmp_path / "prob")
    assert main(["synth", "--out", base, "--n", "60", "--d", "10", "--seed", "7"]) == 0
    assert main(["truth", "--problem", base + ".problem", "--iters", "1500"]) == 0
    assert main(["synth", "--out", base, "--n", "60", "--d", "10", "--seed", "9"]) == 0
    with pytest.raises(ValueError, match=r"prob\.problem\.truth\.npz: .*another problem.*"
                                         r"rerun `spdfp truth`"):
        main(["run", "--config", desk_run_config(tmp_path)])
    # a fresh truth of the problem now there is taken
    assert main(["truth", "--problem", base + ".problem", "--iters", "1500"]) == 0
    assert main(["run", "--config", desk_run_config(tmp_path)]) == 0


def test_run_checks_the_shapes_of_a_truth_without_fingerprint(tmp_path):
    # a truth file written before fingerprints, of a problem with d = 10,
    # next to a problem with d = 12
    base = str(tmp_path / "prob")
    assert main(["synth", "--out", base, "--n", "60", "--d", "10", "--seed", "7"]) == 0
    gt = harness.compute_ground_truth(load_problem(base + ".problem"), iters=1500)
    np.savez(base + ".problem.truth.npz", x_star=gt.x_star, v_star=gt.v_star,
             objective_star=gt.objective_star, residual=gt.residual, gamma=gt.gamma,
             lam=gt.lam, iterations=gt.iterations)
    assert main(["run", "--config", desk_run_config(tmp_path)]) == 0  # same shapes: loads
    assert main(["synth", "--out", base, "--n", "60", "--d", "12", "--seed", "7"]) == 0
    with pytest.raises(ValueError, match=r"prob\.problem\.truth\.npz: .*shape \(10,\).*"
                                         r"12 features.*rerun `spdfp truth`"):
        main(["run", "--config", desk_run_config(tmp_path)])
