import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spdfp._kernels as kernels
import spdfp.sparse
from spdfp import harness
from spdfp.cli import main
from spdfp.harness import (
    GroundTruth,
    load_ground_truth,
    load_problem,
    save_ground_truth,
    save_problem,
    synth_fused_lasso,
)
from spdfp.solvers import ConstantSchedule, SolverConfig
from spdfp.sparse import SparseMatrix, estimate_spectrum
from test_kernels import c_lane  # noqa: F401  (the fixture that builds the C lane)


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


def refused(capsys, argv, pattern):
    """Check that main(argv) returns 2 and writes one line to stderr,
    'spdfp: error: ' and a message that pattern matches somewhere in, as
    pytest.raises(match=pattern) would match it."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("spdfp: error: ") and err.count("\n") == 1, err
    assert re.search(pattern, err[len("spdfp: error: "):-1]), err


def test_run_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem = synth:n=20,d=5\nsolvers = pdfp()\nrepetitions = 1\n"
                   "epochs = 0\noutput = o\nmaster_seed = 1\nextra = 2\n")
    refused(capsys, ["run", "--config", str(cfg)], "extra")


def test_refused_inputs_are_one_line_on_stderr_with_status_2(tmp_path, capsys):
    # a clause whose lambda fails the guard, after two good ones, and a
    # config file that is not there: no traceback, one line each
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("problem = synth:n=120,d=8,seed=7\n"
                   "solvers = spdfp2(p=100); pdfp(); spdfp1(p=100,lambda=100)\n"
                   "repetitions = 1\nepochs = 1\noutput = o\nmaster_seed = 1\n")
    refused(capsys, ["run", "--config", str(cfg)],
            r"^solver spdfp1: lambda=100\.0 is not shown to satisfy ")
    refused(capsys, ["run", "--config", str(tmp_path / "none.cfg")],
            r"^\[Errno 2\] No such file or directory: .*none\.cfg")


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


def test_bound_check_refuses_a_first_index_past_2_53_in_one_line(capsys):
    # c**(1/alpha) = 1e2000 overflowed into a traceback
    refused(capsys, ["bound-check", "--alphas", "0.1", "--cs", "1e200", "--k-max", "10"],
            r"^c=1e\+200 and alpha=0\.1 put the first step index c\*\*\(1/alpha\) past 2\*\*53")


def test_bound_check_prints_a_cell_whose_growth_factor_alone_overflows(capsys):
    # the alpha < 1 bound's exp(c k0**(1-alpha) / (1-alpha)) = exp(800) ended
    # in an OverflowError traceback, though the bound is finite
    assert main(["bound-check", "--alphas", "0.5", "--cs", "20", "--taus", "0.1",
                 "--s-inits", "1", "--k-max", "850"]) == 0
    out = capsys.readouterr().out
    assert "alpha=0.5 c=20.0 tau=0.1 s_init=1.0 k0=400: PASS\n" in out


def test_bound_check_names_the_flag_of_a_bad_value(capsys):
    for flag in ("--alphas", "--cs", "--taus", "--s-inits"):
        refused(capsys, ["bound-check", flag, "0.5,abc", "--k-max", "10"],
                f"bound-check: {flag} = 'abc' is not a finite float")


@pytest.mark.parametrize("operator,pattern", [
    ("B", r"^B is zero \(rho_max\(BB\^T\) = 0\), so there is no default lambda"),
    ("A", r"^(?!.*pdfp gamma)A is zero and l2_weight = 0, .* no default step 1/L.*"
          r"compute_ground_truth\(spec, cfg=SolverConfig\(\.\.\.\)\).*save_ground_truth"),
], ids=["B", "A"])
def test_a_zero_operator_is_refused_in_one_line(tmp_path, capsys, operator, pattern):
    # a B.txt of its shape line alone is a zero B, whose rho_max = 0 leaves
    # no default lambda; a LIBSVM file of labels alone, with l2_weight = 0,
    # has L = 0 and no default step: `spdfp truth` and `spdfp run` each
    # refuse it in one line that names the operator, and for A the library
    # route to its truth, not pdfp gamma=..., which reaches no truth
    base = str(tmp_path / "prob")
    assert main(["synth", "--out", base, "--n", "30", "--d", "6", "--seed", "2"]) == 0
    capsys.readouterr()
    if operator == "B":
        (tmp_path / "prob.B.txt").write_text("# shape 5 6\n")
    else:
        (tmp_path / "prob.libsvm").write_text("1\n-1\n" * 15)
        assert load_problem(base + ".problem").dataset.samples.nnz == 0
    refused(capsys, ["truth", "--problem", base + ".problem"], pattern)
    refused(capsys, ["run", "--config", desk_run_config(tmp_path)], pattern)


def test_an_operator_too_large_for_memory_is_refused_in_one_line(tmp_path):
    # a B.txt shape line that gives A 10**12 columns, within int64: the
    # first product of a spectrum estimate cannot allocate its 7.28 TiB,
    # which ended in a MemoryError traceback. Run in a child whose address
    # space is capped before it starts, so that it never touches that much
    resource = pytest.importorskip("resource")
    base = str(tmp_path / "prob")
    assert main(["synth", "--out", base, "--n", "30", "--d", "6", "--seed", "2"]) == 0
    b_txt = tmp_path / "prob.B.txt"
    b_txt.write_text("\n".join(["# shape 11 1000000000000"] + b_txt.read_text().splitlines()[1:])
                     + "\n")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    src = os.path.dirname(os.path.dirname(os.path.abspath(spdfp.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "spdfp.cli", "truth", "--problem",
                           base + ".problem"], capture_output=True, text=True, env=env,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)),
                          timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("spdfp: error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "Unable to allocate 7.28 TiB" in done.stderr


def desk_run_config(tmp_path, solvers="spdfp2(p=10)"):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"problem = prob.problem\nsolvers = {solvers}\nrepetitions = 1\n"
                   "epochs = 2\noutput = out/run\nmaster_seed = 5\n")
    return str(cfg)


BEYOND_INT64 = "99999999999999999999"


@pytest.mark.parametrize("case", ["index", "shape-and-token", "shape"])
def test_an_index_or_count_past_int64_is_refused_with_its_line(tmp_path, capsys, case):
    # an entry index past int64 in a B.txt with no shape line, and a shape
    # count past it, with or without a LIBSVM index past it: an
    # OverflowError traceback from SparseMatrix.from_coo, or NumPy's
    # "Maximum allowed dimension exceeded", which names no file
    base = str(tmp_path / "prob")
    assert main(["synth", "--out", base, "--n", "30", "--d", "6", "--seed", "2"]) == 0
    capsys.readouterr()
    b_txt, libsvm = tmp_path / "prob.B.txt", tmp_path / "prob.libsvm"
    if case == "index":
        lines = b_txt.read_text().splitlines()[1:] + [f"0 {BEYOND_INT64} 1.0"]
        b_txt.write_text("\n".join(lines) + "\n")
        where = rf"prob\.B\.txt:{len(lines)}: index out of range"
    else:
        b_txt.write_text("# shape 5 100000000000000000000\n")
        where = r"prob\.B\.txt:1: a shape past int64"
    if case == "shape-and-token":
        first, *rest = libsvm.read_text().splitlines()
        libsvm.write_text("\n".join([f"{first} {BEYOND_INT64}:1", *rest]) + "\n")
    refused(capsys, ["truth", "--problem", base + ".problem"], where)
    refused(capsys, ["run", "--config", desk_run_config(tmp_path)], where)


def test_a_hinge_problem_is_told_the_route_to_its_truth(tmp_path, capsys):
    # with no truth file, `spdfp truth` and `spdfp run` (even one whose pdfp
    # clause gives its step) named pdfp gamma=..., which reaches no truth;
    # the route they name, a truth saved from Python, lets the run finish
    base = str(tmp_path / "prob")
    assert main(["synth", "--out", base, "--n", "30", "--d", "6", "--seed", "2"]) == 0
    capsys.readouterr()
    libsvm = tmp_path / "prob.libsvm"
    libsvm.write_text("".join(("1" if i % 2 else "-1") + line[line.index(" "):] + "\n"
                              for i, line in enumerate(libsvm.read_text().splitlines())))
    problem = tmp_path / "prob.problem"
    problem.write_text(problem.read_text().replace("loss = square", "loss = hinge"))
    config = desk_run_config(tmp_path, "pdfp(gamma=0.1); spdfp2(p=10)")
    route = r"compute_ground_truth\(spec, cfg=SolverConfig\(\.\.\.\)\).*save_ground_truth"
    for argv in (["truth", "--problem", base + ".problem"], ["run", "--config", config]):
        refused(capsys, argv, rf"^(?!.*pdfp gamma).*{route}")
    spec = load_problem(base + ".problem")
    cfg = SolverConfig(schedule=ConstantSchedule(0.1), lam=harness.default_lambda(spec), p=spec.n)
    with pytest.warns(RuntimeWarning, match="cap of 200 iterations"):
        save_ground_truth(harness.compute_ground_truth(spec, cfg=cfg, iters=200),
                          base + ".problem.truth.npz", spec)
    assert main(["run", "--config", config]) == 0
    assert "pdfp gamma" not in capsys.readouterr().err


def test_run_refuses_the_truth_of_another_problem(tmp_path, capsys):
    # the truth of the seed-7 problem stays next to the seed-9 one written
    # over it; its fingerprint no longer matches
    base = str(tmp_path / "prob")
    assert main(["synth", "--out", base, "--n", "60", "--d", "10", "--seed", "7"]) == 0
    assert main(["truth", "--problem", base + ".problem", "--iters", "1500"]) == 0
    assert main(["synth", "--out", base, "--n", "60", "--d", "10", "--seed", "9"]) == 0
    refused(capsys, ["run", "--config", desk_run_config(tmp_path)],
            r"prob\.problem\.truth\.npz: .*another problem.*rerun `spdfp truth`")
    # a fresh truth of the problem now there is taken
    assert main(["truth", "--problem", base + ".problem", "--iters", "1500"]) == 0
    assert main(["run", "--config", desk_run_config(tmp_path)]) == 0


def test_a_damaged_truth_is_refused_with_its_path(tmp_path, capsys):
    # each put where `spdfp run` reads the truth: the run refuses it in one
    # line that names it, and load_problem next to it parses; a file written
    # before fingerprints, with the optimum's fields only, is one of them
    base = str(tmp_path / "prob")
    assert main(["synth", "--out", base, "--n", "60", "--d", "10", "--seed", "7"]) == 0
    fresh = harness.problem_fingerprint(load_problem(base + ".problem"))
    assert main(["truth", "--problem", base + ".problem", "--iters", "1500"]) == 0
    truth = tmp_path / "prob.problem.truth.npz"
    good = truth.read_bytes()
    with np.load(truth) as z:
        np.savez(tmp_path / "no_x.npz", **{k: z[k] for k in z.files if k != "x_star"})
        np.savez(tmp_path / "unsigned.npz", **{f.name: z[f.name] for f in fields(GroundTruth)})
        np.save(tmp_path / "x.npy", z["x_star"])
    for damaged in (good[:len(good) // 2], (tmp_path / "x.npy").read_bytes(),
                    (tmp_path / "no_x.npz").read_bytes(),
                    (tmp_path / "unsigned.npz").read_bytes(), b"x_star = 0\n"):
        truth.write_bytes(damaged)
        assert harness.problem_fingerprint(load_problem(base + ".problem")) == fresh
        refused(capsys, ["run", "--config", desk_run_config(tmp_path)],
                rf"^{re.escape(str(truth))}: not a ground truth file: .*; rerun `spdfp truth`$")


def desk_truth(tmp_path):
    """The truth file of a 60 x 10 problem that `spdfp synth` and `spdfp
    truth` wrote into tmp_path, and its arrays."""
    base = str(tmp_path / "prob")
    assert main(["synth", "--out", base, "--n", "60", "--d", "10", "--seed", "7"]) == 0
    assert main(["truth", "--problem", base + ".problem", "--iters", "1500"]) == 0
    truth = tmp_path / "prob.problem.truth.npz"
    with np.load(truth) as z:
        return truth, {k: z[k] for k in z.files}


@pytest.mark.parametrize("key,damage", [
    ("objective_star", lambda a: np.array("abc")),
    ("iterations", lambda a: np.array(3.5)),
    ("residual", lambda a: np.array([1e-14, 1e-14])),
    ("x_star", lambda a: a[None]),
    ("x_star", lambda a: a[:-1]),
    ("v_star", lambda a: a[:-1]),
    ("fingerprint", lambda a: np.array(1.0)),
], ids=["objective_star-str", "iterations-float", "residual-1d", "x_star-2d", "x_star-short",
        "v_star-short", "fingerprint-float"])
def test_a_truth_field_of_the_wrong_kind_or_shape_is_refused_with_its_path(tmp_path, capsys,
                                                                          key, damage):
    # each once converted with a bare float() or int(), or taken as it was,
    # and an x_star or v_star one entry short, which the fingerprint does
    # not cover: `spdfp run` refuses the file in one line that names it
    truth, arrays = desk_truth(tmp_path)
    np.savez(truth, **{**arrays, key: damage(arrays[key])})
    refused(capsys, ["run", "--config", desk_run_config(tmp_path)],
            rf"^{re.escape(str(truth))}: not a ground truth file: its {key} is a .*; "
            r"rerun `spdfp truth`$")


@pytest.mark.parametrize("key,damage", [
    ("A_shape", lambda a: a[:1]),
    ("A_shape", lambda a: np.array([-1, a[1]])),
    ("A_shape", lambda a: a.astype(float)),
    ("A_indptr", lambda a: a[:-1]),
    ("A_indices", lambda a: a.astype(float)),
    ("A_data", lambda a: a[:-1]),
    ("labels", lambda a: a[:-1]),
    ("labels", lambda a: a.astype(str)),
    ("A_indices", lambda a: a[[1, 0, *range(2, len(a))]]),
    ("A_indices", lambda a: np.concatenate([a[:1], a[:-1]])),
    ("B_rho_max", lambda a: np.array([a, a])),
], ids=["A_shape-one", "A_shape-negative", "A_shape-float", "A_indptr-short",
        "A_indices-float", "A_data-short", "labels-short", "labels-str", "A_indices-unsorted",
        "A_indices-repeated", "B_rho_max-1d"])
def test_damaged_stored_problem_arrays_mean_no_stored_problem(tmp_path, monkeypatch, capsys,
                                                             key, damage):
    # load_problem parses the data file instead, as with no truth file, and
    # `spdfp run` refuses the file in one line that names it
    truth, arrays = desk_truth(tmp_path)
    problem = str(tmp_path / "prob.problem")
    parsed = []
    load_libsvm = harness.load_libsvm
    monkeypatch.setattr(harness, "load_libsvm",
                        lambda *a, **kw: parsed.append(a) or load_libsvm(*a, **kw))
    fresh = harness.problem_fingerprint(load_problem(problem))
    assert parsed == []
    np.savez(truth, **{**arrays, key: damage(arrays[key])})
    assert harness.problem_fingerprint(load_problem(problem)) == fresh
    assert len(parsed) == 1
    refused(capsys, ["run", "--config", desk_run_config(tmp_path)],
            rf"^{re.escape(str(truth))}: not a ground truth file: .*; rerun `spdfp truth`$")


def test_truth_refuses_a_synth_source_and_takes_no_out(tmp_path, capsys, monkeypatch):
    # a synth: source has no truth file: `spdfp run` computes its truth
    monkeypatch.chdir(tmp_path)
    refused(capsys, ["truth", "--problem", "synth:n=40,d=6,seed=2"],
            r"^truth: synth:n=40,d=6,seed=2 is no \.problem file")
    assert os.listdir(tmp_path) == []
    with pytest.raises(SystemExit) as exit_:
        main(["truth", "--problem", "p.problem", "--out", "x.npz"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --out x.npz" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# the problem and its spectra, stored with the truth

@pytest.fixture(params=["c", "numpy"])
def lane(request, monkeypatch):
    monkeypatch.setattr(kernels, "LANE",
                        request.getfixturevalue("c_lane") if request.param == "c" else None)
    return request.param


def problem_with_truth(tmp_path):
    """The base path of a synthetic problem in tmp_path with its truth
    written by `spdfp truth`."""
    base = str(tmp_path / "prob")
    assert main(["synth", "--out", base, "--n", "60", "--d", "10", "--seed", "7"]) == 0
    assert main(["truth", "--problem", base + ".problem"]) == 0
    return base


def run_config(tmp_path, output):
    # pdfp() steps by default_gamma, so it reads the spectrum of A too
    cfg = tmp_path / (output + ".cfg")
    cfg.write_text("problem = prob.problem\n"
                   "solvers = spdfp2(p=10); pdfp(); spdfp1(p=20,c=0.5)\n"
                   f"repetitions = 2\nepochs = 3\noutput = out/{output}\nmaster_seed = 5\n")
    return str(cfg)


def csv_without_wall_time(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    body = [line.split(",") for line in lines if not line.startswith("#")]
    drop = body[0].index("wall_time_s")
    return ([line for line in lines if line.startswith("#")],
            [row[:drop] + row[drop + 1:] for row in body])


def never(*args, **kwargs):
    raise AssertionError("the data file was parsed or Lanczos run")


def unread_data(base):
    """Rewrite the truth file of base with data_sha256 = '', as for a
    dataset read from no file: load_problem then parses the data file."""
    with np.load(base + ".problem.truth.npz") as z:
        arrays = {k: z[k] for k in z.files}
    np.savez(base + ".problem.truth.npz", **{**arrays, "data_sha256": np.array("")})


def test_run_takes_the_problem_and_its_spectra_from_the_truth(tmp_path, monkeypatch, lane):
    base = problem_with_truth(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(harness, "load_libsvm", never)
        m.setattr(spdfp.sparse, "estimate_spectrum", never)
        assert main(["run", "--config", run_config(tmp_path, "stored")]) == 0
    # the same run against a truth whose stored dataset was read from no
    # file: parsed, and estimated no more
    unread_data(base)
    parsed = []
    real = harness.load_libsvm
    with monkeypatch.context() as m:
        m.setattr(harness, "load_libsvm", lambda *a, **k: parsed.append(a) or real(*a, **k))
        m.setattr(spdfp.sparse, "estimate_spectrum", never)
        assert main(["run", "--config", run_config(tmp_path, "parsed")]) == 0
    assert len(parsed) == 1
    for suffix in (".csv", "_mean.csv"):
        assert (csv_without_wall_time(tmp_path / "out" / ("stored" + suffix))
                == csv_without_wall_time(tmp_path / "out" / ("parsed" + suffix)))


def test_a_run_reads_its_truth_file_once_and_fingerprints_once(tmp_path, monkeypatch):
    # run_experiment takes the truth from the read that loads its problem
    base = problem_with_truth(tmp_path)
    calls = []
    for name in ("_read_truth", "problem_fingerprint"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    assert main(["run", "--config", run_config(tmp_path, "once")]) == 0
    assert sorted(calls) == ["_read_truth", "problem_fingerprint"]
    # a truth whose stored dataset was read from no file: one read, one fingerprint
    unread_data(base)
    calls.clear()
    assert main(["run", "--config", run_config(tmp_path, "unread")]) == 0
    assert sorted(calls) == ["_read_truth", "problem_fingerprint"]


def test_a_changed_data_byte_is_parsed_and_its_truth_refused(tmp_path, monkeypatch, capsys,
                                                             lane):
    base = problem_with_truth(tmp_path)
    data = bytearray(open(base + ".libsvm", "rb").read())
    at = data.index(b":") + 1  # the first value
    at += data[at:at + 1] == b"-"  # its first digit
    data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
    open(base + ".libsvm", "wb").write(bytes(data))
    parsed = []
    real = harness.load_libsvm
    monkeypatch.setattr(harness, "load_libsvm", lambda *a, **k: parsed.append(a) or real(*a, **k))
    refused(capsys, ["run", "--config", run_config(tmp_path, "changed")],
            r"prob\.problem\.truth\.npz: .*another problem.*rerun `spdfp truth`")
    assert len(parsed) == 1


def assert_same_estimate(got, want):
    # field by field, as Python values of one type, to the bit (repr keeps -0.0 and nan apart)
    assert [(type(v), repr(v)) for v in vars(got).values()] == [
        (type(v), repr(v)) for v in vars(want).values()]


def test_stored_estimates_are_the_fresh_ones(tmp_path, monkeypatch, lane):
    desk = synth_fused_lasso(1000, 50, 0.05, 0.01, 7, mu=0.1)
    rng = np.random.default_rng(3)
    wide = SparseMatrix.from_dense(rng.standard_normal((5, 50)) * (rng.random((5, 50)) < 0.5))
    for name, B in (("desk", desk.B), ("wide", wide)):
        spec = load_problem(save_problem(replace(desk, B=B), tmp_path / name))
        gt = GroundTruth(x_star=np.zeros(50), v_star=np.zeros(B.n_rows), objective_star=0.0,
                         residual=0.0, gamma=1.0, lam=0.1, iterations=0)
        save_ground_truth(gt, str(tmp_path / name) + ".problem.truth.npz", spec)
        stored = load_problem(str(tmp_path / name) + ".problem")
        with monkeypatch.context() as m:  # handed over, so read without an estimate
            m.setattr(spdfp.sparse, "estimate_spectrum", never)
            got = [M.spectrum for M in (stored.dataset.samples, stored.B)]
        for M, estimate in zip((stored.dataset.samples, stored.B), got):
            assert_same_estimate(estimate, estimate_spectrum(M))
        assert stored.B.n_cols > stored.B.n_rows  # both Bs are wide: Lanczos on B B^T


def test_truth_files_keep_what_the_benchmark_reads(tmp_path, lane):
    # perfbench/workload.py reads x_star, v_star, objective_star and lam
    base = problem_with_truth(tmp_path)
    gt = harness.compute_ground_truth(harness.resolve_problem("synth:n=60,d=10,seed=7"))
    with np.load(base + ".problem.truth.npz") as z:
        for key in ("x_star", "v_star", "objective_star", "lam"):
            want = np.asarray(getattr(gt, key), dtype=np.float64)
            assert z[key].dtype == np.float64 and z[key].shape == want.shape, key
            assert z[key].tobytes() == want.tobytes(), key


# ---------------------------------------------------------------------------
# every input fails in one line: cli.main over mutated input files

# the tokens a mutation swaps in: numbers a reader must refuse or take, two
# past int64, a bare colon and a shape line
MUTATION_TOKENS = ["0", "-1", "nan", "inf", "1e400", "9223372036854775808", BEYOND_INT64,
                   ":", "# shape 2 2"]
MUTATED_FILES = ["prob.problem", "prob.libsvm", "prob.B.txt", "prob.problem.truth.npz",
                 "exp.cfg"]


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A 12 x 4 synth problem, its truth and a run config of the four
    solver kinds, as {file name: bytes}."""
    here = tmp_path_factory.mktemp("tiny")
    base = str(here / "prob")
    assert main(["synth", "--out", base, "--n", "12", "--d", "4", "--seed", "2"]) == 0
    assert main(["truth", "--problem", base + ".problem"]) == 0
    (here / "exp.cfg").write_text(
        "problem = prob.problem\n"
        "solvers = pdfp(); spdfp1(p=4); spdfp2(c=0.5,p=4); stoc_admm(p=4)\n"
        "repetitions = 1\nepochs = 3\noutput = out/run\nmaster_seed = 5\n")
    return {name: (here / name).read_bytes() for name in MUTATED_FILES}


# up to three edits of a file's lines, each (op, line, arg): drop or
# duplicate a line, truncate it to arg bytes, or swap the token of arg =
# (piece, token) in for the whole line or for that piece of it, pieces
# being what blanks and colons separate; line and piece numbers are taken
# modulo what the file and the line have
LINE_EDITS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["drop", "duplicate"]), st.integers(0, 40), st.just(0)),
    st.tuples(st.just("truncate"), st.integers(0, 40), st.integers(0, 30)),
    st.tuples(st.sampled_from(["line", "piece"]), st.integers(0, 40),
              st.tuples(st.integers(0, 8), st.sampled_from(MUTATION_TOKENS)))),
    min_size=1, max_size=3)


def mutate(raw, edits):
    lines = raw.split(b"\n")
    for op, at, arg in edits:
        i = at % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "truncate":
            lines[i] = lines[i][:arg]
        elif op == "line":
            lines[i] = arg[1].encode()
        else:
            pieces = re.split(rb"([\s:]+)", lines[i])
            pieces[2 * (arg[0] % (len(pieces) // 2 + 1))] = arg[1].encode()
            lines[i] = b"".join(pieces)
        if not lines:
            lines = [b""]
    return b"\n".join(lines)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.dictionaries(st.sampled_from(MUTATED_FILES), LINE_EDITS, min_size=1, max_size=2))
@example({"prob.B.txt": [("drop", 0, 0), ("line", 0, (0, f"0 {BEYOND_INT64} 1.0"))]})
@example({"prob.B.txt": [("piece", 0, (3, "100000000000000000000"))]})
@example({"prob.B.txt": [("line", 0, (0, "# shape 5 100000000000000000000"))],
          "prob.libsvm": [("piece", 0, (1, BEYOND_INT64))]})
def test_every_mutated_input_ends_in_status_0_or_one_error_line(tiny_inputs, mutations):
    # one or two of the input files, each with up to three line edits:
    # `spdfp run`, then `spdfp truth`, which rewrites the truth file, exit 0
    # or 2 with one 'spdfp: error:' line, and no exception escapes; the
    # examples are an index and a shape count past int64 in B.txt, and
    # the latter with a LIBSVM index past it
    with tempfile.TemporaryDirectory() as here:
        for name, raw in tiny_inputs.items():
            with open(os.path.join(here, name), "wb") as fh:
                fh.write(mutate(raw, mutations[name]) if name in mutations else raw)
        for argv in (["run", "--config", os.path.join(here, "exp.cfg")],
                     ["truth", "--problem", os.path.join(here, "prob.problem"),
                      "--iters", "2000"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")
                status = main(argv)
            lines = err.getvalue().splitlines()
            assert status == 0 or (status == 2 and len(lines) == 1
                                   and lines[0].startswith("spdfp: error: ")), (argv, lines)
