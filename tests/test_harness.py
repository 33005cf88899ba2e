import csv
import io
import os
import re
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import spdfp.harness as harness
from spdfp.harness import (
    CSV_COLUMNS,
    DEFAULT_TRUTH_ITERS,
    SYNTH_DEFAULTS,
    TRUTH_TARGET,
    ExperimentConfig,
    GroundTruth,
    SolverEntry,
    build_graph_matrix,
    compute_ground_truth,
    default_gamma,
    default_lambda,
    load_ground_truth,
    load_libsvm,
    load_matrix,
    load_problem,
    parse_experiment_config,
    parse_solver_list,
    problem_fingerprint,
    prox_for,
    resolve_problem,
    run_experiment,
    save_ground_truth,
    save_libsvm,
    save_matrix,
    save_problem,
    synth_fused_lasso,
)
from spdfp.problem import Dataset, ProblemSpec, objective_value
from spdfp.sparse import (
    SparseMatrix,
    build_difference_matrix,
    estimate_spectrum,
    identity,
    stack_identity,
)
from spdfp.solvers import ConstantSchedule, RunRecord, SolverConfig, StepSchedule, run_solver


def read_csv_rows(path, wall_col=3):
    """Rows of a run CSV, skipping the '#' preamble; wall-time column blanked.

    wall_col is 3 for the per-repetition CSV and 2 for the mean CSV.
    """
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            cells = line.rstrip("\r\n").split(",")
            if cells and cells[0] != "solver":
                cells[wall_col] = ""  # wall time is exempt from determinism
            rows.append(cells)
    return rows


# ---------------------------------------------------------------------------
# synthetic generator

def test_synth_dimensions_paper_scale():
    spec = synth_fused_lasso(10000, 200, 0.05, 0.01, seed=0)
    assert spec.dataset.samples.shape == (10000, 200)
    assert spec.B.shape == (199, 200)
    assert spec.loss == "square"


def test_synth_dimensions_desk_scale():
    spec = synth_fused_lasso(1000, 50, 0.05, 0.01, seed=0)
    assert spec.dataset.samples.shape == (1000, 50)
    assert spec.B.shape == (49, 50)


def test_synth_seed_determinism():
    s1 = synth_fused_lasso(60, 10, 0.1, 0.05, seed=42)
    s2 = synth_fused_lasso(60, 10, 0.1, 0.05, seed=42)
    np.testing.assert_array_equal(s1.dataset.samples.data, s2.dataset.samples.data)
    np.testing.assert_array_equal(s1.dataset.labels, s2.dataset.labels)
    s3 = synth_fused_lasso(60, 10, 0.1, 0.05, seed=43)
    assert not np.array_equal(s1.dataset.labels, s3.dataset.labels)


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_fused_lasso(10, 5, -0.1, 0.01, seed=0)
    with pytest.raises(ValueError):
        synth_fused_lasso(1, 5, 0.1, 0.01, seed=0)


# ---------------------------------------------------------------------------
# LIBSVM parsing

def test_libsvm_basic_line(tmp_path):
    p = tmp_path / "d.libsvm"
    p.write_text("-1 3:0.5 7:1\n")
    ds = load_libsvm(p)
    assert ds.labels[0] == -1.0
    assert ds.dim == 7
    dense = ds.samples.to_dense()
    assert dense[0, 2] == 0.5 and dense[0, 6] == 1.0
    assert np.count_nonzero(dense) == 2


def test_libsvm_blank_lines_skipped(tmp_path):
    p = tmp_path / "d.libsvm"
    p.write_text("\n1 1:2.0\n\n-1 2:3.0\n\n")
    ds = load_libsvm(p)
    assert ds.n == 2


def test_libsvm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    M = SparseMatrix.from_coo(5, 8, rng.integers(0, 5, 12), rng.integers(0, 8, 12),
                              rng.standard_normal(12))
    ds = Dataset(samples=M, labels=rng.standard_normal(5))
    p = tmp_path / "rt.libsvm"
    save_libsvm(ds, p)
    back = load_libsvm(p, n_features=8)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.samples.to_dense(), M.to_dense())


def test_save_libsvm_writes_the_shortest_round_trip_text(tmp_path):
    # every value as repr of its float, 17 digits where it takes them;
    # 1-based columns; a row without entries is its label alone
    M = SparseMatrix.from_coo(3, 10, [0, 0, 2, 2], [0, 2, 1, 9],
                              [0.1 + 0.2, -1.2345678901234568e-05, 5e-324, 123456789.12345679])
    ds = Dataset(samples=M, labels=[-1, 2.5, 1 / 3])
    p = tmp_path / "pin.libsvm"
    save_libsvm(ds, p)
    assert p.read_bytes() == (b"-1.0 1:0.30000000000000004 3:-1.2345678901234568e-05\n"
                              b"2.5\n"
                              b"0.3333333333333333 2:5e-324 10:123456789.12345679\n")


def test_libsvm_errors(tmp_path):
    p = tmp_path / "bad.libsvm"
    p.write_text("1 2:0.5\nx 1:1\n")
    with pytest.raises(ValueError, match=":2"):
        load_libsvm(p)
    p.write_text("1 0:0.5\n")
    with pytest.raises(ValueError, match="1-based"):
        load_libsvm(p)
    p.write_text("1 2:a\n")
    with pytest.raises(ValueError, match=":1"):
        load_libsvm(p)
    p.write_text("\n\n")
    with pytest.raises(ValueError, match="no samples"):
        load_libsvm(p)
    for tok in ("1:2:3", "a:1", ":1", "1:", "-1:2", "5", ":"):
        p.write_text(f"1 1:1\n-1 {tok} 2:1\n")
        with pytest.raises(ValueError, match=f"bad.libsvm:2: bad feature token '{tok}'"):
            load_libsvm(p)
    p.write_text("1 0:1\n")
    with pytest.raises(ValueError, match="bad.libsvm:1: indices are 1-based, got 0"):
        load_libsvm(p)
    p.write_text("1 1:nan\n")
    with pytest.raises(ValueError, match="bad.libsvm:1: value in '1:nan' is not finite"):
        load_libsvm(p)
    p.write_text("1 1:x\n")
    with pytest.raises(ValueError, match="bad.libsvm:1: bad value in '1:x'"):
        load_libsvm(p)
    # more digits than int() converts, with n_features or without
    p.write_text("1 1:1\n-1 " + "1" * 5000 + ":1\n")
    for n_features in (None, 50):
        with pytest.raises(ValueError) as err:
            load_libsvm(p, n_features=n_features)
        assert str(err.value) == f"{p}:2: feature index of 5000 digits is too large"


def test_libsvm_accepts_what_the_token_pattern_does(tmp_path):
    # leading zeros, any decimal digits, values float() reads
    p = tmp_path / "ok.libsvm"
    p.write_text("1 003:0.5 1:-2e-3 \u0662:+7\n")
    dense = load_libsvm(p).samples.to_dense()
    np.testing.assert_array_equal(dense, [[-2e-3, 7.0, 0.5]])


def test_libsvm_rejects_non_finite_numbers(tmp_path):
    p = tmp_path / "bad.libsvm"
    for text, line in (("1 1:0.5\n-1 2:nan\n", 2), ("1 1:inf\n", 1), ("nan 1:1\n", 1),
                       ("1 1:1\n1 1:1\n-inf 1:1\n", 3)):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"bad.libsvm:{line}: .*not finite"):
            load_libsvm(p)


# every refusal of the reader, word for word: the chunk that holds any of
# these is walked line by line, which names the first bad line
LIBSVM_REFUSALS = [
    (b"1 1:1\nx 1:2\n", None, "{p}:2: bad label 'x'"),
    (b"1 1:1\ninf 1:2\n", None, "{p}:2: label 'inf' is not finite"),
    # two tokens and two colons, but two in the first token
    (b"1 2:3:4 5\n", None, "{p}:1: bad feature token '2:3:4'"),
    (b"1 2:3 5\n", None, "{p}:1: bad feature token '5'"),
    (b"1 2:\n", None, "{p}:1: bad feature token '2:'"),
    (b"1 :3\n", None, "{p}:1: bad feature token ':3'"),
    (b"1 1:1\n-1 1_0:2\n", None, "{p}:2: bad feature token '1_0:2'"),
    (b"1 +1:2\n", None, "{p}:1: bad feature token '+1:2'"),
    (b"1 00:2\n", None, "{p}:1: indices are 1-based, got 0"),
    (b"1 1:abc\n", None, "{p}:1: bad value in '1:abc'"),
    (b"1 1:1\n\n-1 3:nan\n", None, "{p}:3: value in '3:nan' is not finite"),
    # \x0c splits tokens but not lines
    (b"1 1:2\x0c2:3\n2 1:1:1\n", None, "{p}:2: bad feature token '1:1:1'"),
    (b"\n \n", None, "{p}: no samples found"),
    (b"1 60:1\n", 50, "{p}:1: feature index 60 exceeds n_features=50"),
    # a Unicode digit is a decimal digit to the index as to isdecimal()
    ("1 ٣:1\n".encode(), 2, "{p}:1: feature index 3 exceeds n_features=2"),
    (b"1 99999999999999999999999:1\n", 50,
     "{p}:1: feature index 99999999999999999999999 exceeds n_features=50"),
    # the first bad line is the one past n_features, not the bad token after it
    (b"1 60:1\n-1 2:3:4\n", 50, "{p}:1: feature index 60 exceeds n_features=50"),
    # past n_features in the third chunk of a line a chunk
    (b"1 1:1 2:1\n-1 2:1 3:1\n1 60:1\n", 50, "{p}:3: feature index 60 exceeds n_features=50"),
    # beyond int64, so no column count; with n_features, the refusal above
    (b"1 1:1\n-1 99999999999999999999999:1\n", None,
     "{p}:2: feature index 99999999999999999999999 is too large"),
    (b"\xef\xbb\xbf1 1:2\n", None, "{p}:1: bad label '\\ufeff1'"),
    (b"1 1:2\n\xff 1:2\n", None, "{p}:2: byte 0xff is not UTF-8"),
    # a bad line before a byte that is not UTF-8 comes first
    (b"x 1:2\n\xff 1:2\n", None, "{p}:1: bad label 'x'"),
]


@pytest.mark.parametrize("chunk", [None, 8], ids=["chunks", "a line a chunk"])
@pytest.mark.parametrize("text,n_features,message", LIBSVM_REFUSALS)
def test_libsvm_refusals_are_word_for_word(tmp_path, monkeypatch, chunk, text, n_features,
                                          message):
    if chunk is not None:
        monkeypatch.setattr(harness, "_LIBSVM_CHUNK", chunk)
    p = tmp_path / "bad.libsvm"
    p.write_bytes(text)
    with pytest.raises(ValueError) as err:
        load_libsvm(p, n_features=n_features)
    assert str(err.value) == message.format(p=p)


@pytest.mark.parametrize("chunk", [None, 8], ids=["chunks", "a line a chunk"])
def test_libsvm_reads_the_bits_of_float_and_int(tmp_path, monkeypatch, chunk):
    # blank lines, CRLF, a row of its label alone, a form feed inside a
    # line, Unicode digits, duplicates and unsorted columns: the labels and
    # CSR arrays, bit for bit, of a token-by-token float()/int() read
    if chunk is not None:
        monkeypatch.setattr(harness, "_LIBSVM_CHUNK", chunk)
    p = tmp_path / "ok.libsvm"
    for text in ("1 003:0.5 1:-2e-3 ٢:+7\n", "\n1 2:1 2:3 1:5\r\n\n-0.0\n2 1:1e-320\n",
                 "1 1:2\x0c2:3\n-1 3:-0.0 4:1_5.5\n",
                 "\n".join(f"{i % 3 - 1} {i + 1}:{i / 7!r} 40:{-i}" for i in range(30))):
        p.write_bytes(text.encode())
        got = load_libsvm(p)
        labels, indptr, indices, data, n_cols = oracles.libsvm_csr(text)
        assert got.samples.shape == (len(labels), n_cols)
        for arr, want, dtype in ((got.labels, labels, np.float64),
                                 (got.samples.indptr, indptr, np.int64),
                                 (got.samples.indices, indices, np.int64),
                                 (got.samples.data, data, np.float64)):
            assert arr.dtype == dtype
            assert arr.tobytes() == np.array(want, dtype=dtype).tobytes()


# ---------------------------------------------------------------------------
# properties of the text formats: random CSR matrices with any finite
# values (empty rows, trailing empty rows and columns included) survive a
# round trip bit for bit, and a corrupted line is named by its path:line

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, database=None,
                             derandomize=True,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def csr_matrices(draw, min_rows=0, max_side=6):
    n_rows = draw(st.integers(min_rows, max_side))
    n_cols = draw(st.integers(0, max_side))
    count = draw(st.integers(0, 2 * n_rows * n_cols)) if n_rows and n_cols else 0
    rows = draw(st.lists(st.integers(0, max(n_rows - 1, 0)), min_size=count, max_size=count))
    cols = draw(st.lists(st.integers(0, max(n_cols - 1, 0)), min_size=count, max_size=count))
    vals = draw(st.lists(FINITE, min_size=count, max_size=count))
    # from_coo sums duplicates, which can overflow: keep the first of each
    first = {}
    for r, c, v in zip(rows, cols, vals):
        first.setdefault((r, c), v)
    entries = list(zip(*[(r, c, v) for (r, c), v in first.items()])) or ([], [], [])
    return SparseMatrix.from_coo(n_rows, n_cols, *entries)


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.data, want.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@PROPERTY_SETTINGS
@given(csr_matrices(min_rows=1), st.data())
def test_libsvm_round_trip_keeps_the_bits(tmp_path, M, data):
    labels = np.array(data.draw(st.lists(FINITE, min_size=M.n_rows, max_size=M.n_rows)))
    p = tmp_path / "rt.libsvm"
    save_libsvm(Dataset(samples=M, labels=labels), p)
    back = load_libsvm(p, n_features=M.n_cols)
    assert back.labels.tobytes() == labels.tobytes()
    assert_same_csr(back.samples, M)
    # written back to the same bytes
    save_libsvm(back, tmp_path / "again.libsvm")
    assert (tmp_path / "again.libsvm").read_bytes() == p.read_bytes()


@PROPERTY_SETTINGS
@given(csr_matrices())
def test_matrix_round_trip_keeps_the_bits(tmp_path, M):
    p = tmp_path / "rt.txt"
    save_matrix(M, p)
    assert_same_csr(load_matrix(p), M)


CORRUPTIONS = {
    "label": st.sampled_from(["x", "1..0", "--1", "1e", "0x1p3", "1:2"]),
    "zero index": st.sampled_from(["0:1", "0:-2.5", "00:3"]),
    "non-finite": st.sampled_from(["nan", "inf", "-inf", "1e999"]),
    "stray colon": st.sampled_from([":", ":1", "2:", "1:2:3", "1::2", "2:1:"]),
}


@PROPERTY_SETTINGS
@given(csr_matrices(min_rows=1), st.sampled_from(sorted(CORRUPTIONS)), st.data())
def test_corrupted_libsvm_line_is_named(tmp_path, M, kind, data):
    p = tmp_path / "bad.libsvm"
    save_libsvm(Dataset(samples=M, labels=np.ones(M.n_rows)), p)
    lines = p.read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    bad = data.draw(CORRUPTIONS[kind])
    if kind == "label":
        tokens[0] = bad
    elif kind == "non-finite" and data.draw(st.booleans()):
        tokens[0] = bad  # the label
    else:
        if kind == "non-finite":
            bad = f"{data.draw(st.integers(1, 9))}:{bad}"
        tokens.insert(data.draw(st.integers(1, len(tokens))), bad)
    lines[i] = " ".join(tokens)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:{i + 1}: ")):
        load_libsvm(p)


@PROPERTY_SETTINGS
@given(csr_matrices(min_rows=1).filter(lambda M: M.nnz > 0),
       st.sampled_from(["nan", "inf", "-1e999", "1:2", ":", "1 2"]), st.data())
def test_corrupted_matrix_line_is_named(tmp_path, M, bad, data):
    p = tmp_path / "bad.txt"
    save_matrix(M, p)
    lines = p.read_text().splitlines()
    i = data.draw(st.integers(1, len(lines) - 1))  # line 0 is the shape
    fields = lines[i].split()
    fields[data.draw(st.integers(0, 2)) if ":" in bad or " " in bad else 2] = bad
    lines[i] = " ".join(fields)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:{i + 1}: ")):
        load_matrix(p)


# ---------------------------------------------------------------------------
# matrix files and graph construction

def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    M = SparseMatrix.from_coo(4, 6, [0, 2, 3], [1, 5, 0], [1.5, -2.25, 3.0])
    p = tmp_path / "m.txt"
    save_matrix(M, p)
    back = load_matrix(p)
    assert back.shape == (4, 6)  # shape survives despite empty row 1
    np.testing.assert_array_equal(back.to_dense(), M.to_dense())


def test_matrix_errors_say_where(tmp_path):
    p = tmp_path / "m.txt"
    for text, line in (("0 0 1.0\n1 x 2.0\n", 2),        # bad index
                       ("0 0 1.0\n\n1 1 two\n", 3),     # bad value
                       ("0 0\n", 1),                     # too few fields
                       ("0 0 1.0 4\n", 1),               # too many fields
                       ("0 -1 1.0\n", 1),                # negative index
                       ("# shape 2 2\n0 0 1\n2 0 1\n", 3),  # outside the shape
                       ("0 0 1.0\n1 1 nan\n", 2),        # not finite
                       ("0 0 -inf\n", 1)):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"m.txt:{line}: "):
            load_matrix(p)


def test_a_shape_line_after_an_entry_or_a_second_one_is_named(tmp_path):
    # a shape line takes effect only before the first entry, and only once:
    # one after an entry failed with an error naming no file, and a second
    # one silently replaced the first
    p = tmp_path / "m.txt"
    for text, line in (("5 5 1.0\n# shape 2 2\n", 2),
                       ("# shape 2 2\n# shape 9 9\n5 5 1.0\n", 2),
                       ("# shape 9 9\n0 0 1.0\n# a note\n#shape 9 9\n", 4)):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"m.txt:{line}: a '# shape' line must come once, "
                                             "before the first entry"):
            load_matrix(p)
    p.write_text("# a note\n# shape 9 9\n# another\n5 5 1.0\n")
    assert load_matrix(p).shape == (9, 9)


def test_a_key_without_a_value_is_named(tmp_path):
    # 'output =' once wrote <dir>/.csv and <dir>/_mean.csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = synth:n=20\nsolvers = pdfp()\nrepetitions = 1\nepochs = 1\n"
                   "output =  \nmaster_seed = 1\n")
    with pytest.raises(ValueError, match=r"run.cfg:5: key 'output' has no value"):
        parse_experiment_config(cfg)
    p = tmp_path / "x.problem"
    p.write_text("loss = square\ndata =\n")
    with pytest.raises(ValueError, match=r"x.problem:2: key 'data' has no value"):
        load_problem(p)


def test_repeated_key_names_both_lines(tmp_path):
    p = tmp_path / "x.problem"
    p.write_text("loss = square\ndata = d.libsvm\n# note\nloss = hinge\n")
    with pytest.raises(ValueError, match=r"x.problem:4: key 'loss' repeats line 1"):
        load_problem(p)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = synth:n=20\nsolvers = pdfp()\nrepetitions = 1\nepochs = 1\n"
                   "output = out/run\nmaster_seed = 1\nepochs = 2\n")
    with pytest.raises(ValueError, match=r"run.cfg:7: key 'epochs' repeats line 4"):
        parse_experiment_config(cfg)


def test_numbers_in_key_files_say_where(tmp_path):
    spec = synth_fused_lasso(20, 5, 0.1, 0.01, seed=1)
    base = save_problem(spec, tmp_path / "p")
    text = open(base).read()
    for bad in ("abc", "nan", "inf"):
        with open(base, "w") as fh:
            fh.write(text.replace("l2_weight = 0.0", f"l2_weight = {bad}"))
        with pytest.raises(ValueError, match=rf"p.problem: l2_weight = '{bad}' is not a finite"):
            load_problem(base)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = synth:n=20\nsolvers = pdfp()\nrepetitions = two\nepochs = 1\n"
                   "output = out/run\nmaster_seed = 1\n")
    with pytest.raises(ValueError, match=r"run.cfg: repetitions = 'two' is not a finite int"):
        parse_experiment_config(cfg)


def test_problem_file_errors_name_the_file(tmp_path):
    # a misspelt key is refused, not read as absent, and the loss and label
    # checks of ProblemSpec say which file they refuse
    spec = synth_fused_lasso(20, 5, 0.1, 0.01, seed=1)
    base = save_problem(spec, tmp_path / "p")
    text = open(base).read()
    for old, new, message in (
            ("l2_weight =", "l2_wieght =", r"p.problem: unknown problem key 'l2_wieght'"),
            ("loss = square", "loss = squre", r"p.problem: unknown loss 'squre'; expected one of"),
            ("loss = square", "loss = hinge",
             r"p.problem: classification losses need labels in \{-1, \+1\}")):
        with open(base, "w") as fh:
            fh.write(text.replace(old, new))
        with pytest.raises(ValueError, match=message):
            load_problem(base)


@pytest.mark.parametrize("suffix", [".libsvm", ".B.txt", ".problem", ".cfg"])
@pytest.mark.parametrize("bad,byte", [(b"\xff", "0xff"), (b"\xe2(", "0xe2"),
                                      (b"\xed\xa0\x80", "0xed")],  # the last a UTF-16 surrogate
                         ids=["0xff", "cut short", "surrogate"])
def test_bytes_that_are_not_utf8_are_refused_at_their_line(tmp_path, suffix, bad, byte):
    # every text format is read by one reader, which names the file and the
    # line, far past the first block the decoder reads too
    spec = synth_fused_lasso(3000, 5, 0.1, 0.01, seed=1)
    problem = save_problem(spec, tmp_path / "p")
    cfg = write_config(tmp_path, "p.problem", "pdfp()")
    path = cfg if suffix == ".cfg" else tmp_path / ("p" + suffix)
    lines = path.read_bytes().splitlines(keepends=True)
    at = min(2500, len(lines)) - 1
    lines[at] = lines[at].rstrip(b"\n") + bad + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError) as err:
        parse_experiment_config(cfg) if suffix == ".cfg" else load_problem(problem)
    assert str(err.value) == f"{path}:{at + 1}: byte {byte} is not UTF-8"


def test_graph_matrix_perfect_pair():
    rng = np.random.default_rng(2)
    base = rng.standard_normal(40)
    X = np.column_stack([base, base * 2.0, rng.standard_normal(40)])
    ds = Dataset(samples=SparseMatrix.from_dense(X), labels=np.zeros(40))
    G = build_graph_matrix(ds, 0.999)
    assert G.n_rows == 1  # only the perfectly correlated pair
    np.testing.assert_array_equal(G.to_dense()[0], [1.0, -1.0, 0.0])


def test_graph_matrix_high_threshold_gives_identity_stack():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 4))  # weakly correlated columns
    ds = Dataset(samples=SparseMatrix.from_dense(X), labels=np.zeros(50))
    corr = np.corrcoef(X, rowvar=False)
    assert np.abs(corr[~np.eye(4, dtype=bool)]).max() < 0.95
    G_empty = build_graph_matrix(ds, 0.95)
    # threshold above max |correlation|: B = [G; I] degenerates to the identity
    assert G_empty.n_rows == 0
    np.testing.assert_array_equal(stack_identity(G_empty).to_dense(), np.eye(4))


def test_graph_matrix_zero_variance_warning():
    X = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0) * 3])
    ds = Dataset(samples=SparseMatrix.from_dense(X), labels=np.zeros(10))
    with pytest.warns(UserWarning, match="zero-variance"):
        G = build_graph_matrix(ds, 0.5)
    assert G.n_rows == 1


def graph_pairs_by_loop(X, threshold):
    """The (i, j) feature pairs of the graph by a loop over every pair of
    non-constant columns, with corr computed as build_graph_matrix does."""
    std = X.std(axis=0)
    live = np.flatnonzero(std > 0)
    Xc = (X[:, live] - X[:, live].mean(axis=0)) / std[live]
    corr = (Xc.T @ Xc) / X.shape[0]
    return [(int(live[a]), int(live[b])) for a in range(len(live))
            for b in range(a + 1, len(live)) if abs(corr[a, b]) > threshold]


@pytest.mark.parametrize("seed", range(20))
def test_graph_matrix_matches_a_loop_over_pairs(seed):
    # constant and duplicated columns, and thresholds from 0 up
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 30)), int(rng.integers(1, 12))
    X = rng.standard_normal((n, d)) + rng.standard_normal((n, 1))
    X[:, rng.random(d) < 0.2] = 1.5
    if d > 2:
        X[:, -1] = -X[:, 0]
    threshold = float(rng.choice([0.0, 0.1, 0.5, 0.9]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        G = build_graph_matrix(Dataset(samples=SparseMatrix.from_dense(X), labels=np.zeros(n)),
                               threshold)
    pairs = graph_pairs_by_loop(X, threshold)
    want = np.zeros((len(pairs), d))
    for r, (i, j) in enumerate(pairs):
        want[r, i], want[r, j] = 1.0, -1.0
    assert G.shape == (len(pairs), d)
    np.testing.assert_array_equal(G.to_dense(), want)


def test_graph_matrix_holds_two_dense_copies_at_most():
    # tracemalloc's peak over build_graph_matrix on a 2000 x 100 half-dense
    # matrix: the dense samples and one more n x d copy (X.std's
    # temporary, then the live columns), and O(d^2) for the correlations
    rng = np.random.default_rng(38)
    n, d = 2000, 100
    X = (rng.standard_normal((n, 1)) + rng.standard_normal((n, d))) * (rng.random((n, d)) < 0.5)
    ds = Dataset(samples=SparseMatrix.from_dense(X), labels=np.zeros(n))
    tracemalloc.start()
    try:
        G = build_graph_matrix(ds, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.n_rows > 0
    assert peak <= 2 * X.nbytes + 8 * (8 * d * d)


def test_graph_matrix_invalid_threshold():
    ds = Dataset(samples=identity(3), labels=np.zeros(3))
    with pytest.raises(ValueError):
        build_graph_matrix(ds, 1.0)


# ---------------------------------------------------------------------------
# problem files

def test_problem_round_trip(tmp_path):
    spec = synth_fused_lasso(30, 8, 0.1, 0.02, seed=5, mu=0.3, nu=0.1)
    base = tmp_path / "prob"
    path = save_problem(spec, base)
    back = load_problem(path)
    assert back.loss == "square"
    assert back.l2_weight == 0.1 and back.composite_weight == 0.3
    np.testing.assert_array_equal(back.dataset.samples.to_dense(),
                                  spec.dataset.samples.to_dense())
    np.testing.assert_array_equal(back.B.to_dense(), spec.B.to_dense())


def test_problem_with_an_empty_last_feature_column_round_trips(tmp_path):
    # LIBSVM text cannot show that column; the B file's shape line does
    rng = np.random.default_rng(8)
    A = rng.standard_normal((20, 5))
    A[:, -1] = 0.0
    spec = ProblemSpec(loss="square",
                       dataset=Dataset(SparseMatrix.from_dense(A), rng.standard_normal(20)),
                       l2_weight=0.0, composite_weight=0.1, B=build_difference_matrix(5))
    back = load_problem(save_problem(spec, tmp_path / "prob"))
    assert_same_csr(back.dataset.samples, spec.dataset.samples)
    assert back.dataset.labels.tobytes() == spec.dataset.labels.tobytes()
    assert_same_csr(back.B, spec.B)


# ---------------------------------------------------------------------------
# ground truth

def test_ground_truth_trivial_problem():
    # pure quadratic with b = 0: x* = 0 from the zero start after any steps
    ds = Dataset(samples=identity(4), labels=np.zeros(4))
    spec = ProblemSpec(loss="square", dataset=ds, l2_weight=0.0,
                       composite_weight=0.0, B=identity(4))
    gt = compute_ground_truth(spec, iters=3)
    np.testing.assert_array_equal(gt.x_star, np.zeros(4))
    assert gt.residual == 0.0


def test_ground_truth_stops_at_its_target_and_warns_at_its_cap():
    spec = synth_fused_lasso(200, 20, 0.05, 0.01, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gt = compute_ground_truth(spec)
    assert gt.residual <= 1e-12
    assert gt.iterations % 25 == 0 and gt.iterations < DEFAULT_TRUTH_ITERS
    for cap in (40, 1):
        with pytest.warns(RuntimeWarning) as caught:
            capped = compute_ground_truth(spec, iters=cap)
        assert len(caught) == 1
        assert f"cap of {cap} iterations" in str(caught[0].message)
        assert f"{capped.residual:.3e}" in str(caught[0].message)
        assert capped.iterations == cap and capped.residual > TRUTH_TARGET
    with pytest.raises(ValueError, match="iters"):
        compute_ground_truth(spec, iters=0)


def test_ground_truth_reaches_its_target_where_3000_iterations_did_not():
    # 3000 iterations left this desk-type instance at residual 3.0e-8
    spec = synth_fused_lasso(1000, 50, 0.05, 0.01, 12, mu=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gt = compute_ground_truth(spec)
    assert gt.residual <= TRUTH_TARGET
    assert 3000 < gt.iterations < DEFAULT_TRUTH_ITERS


def test_old_truth_files_with_the_raw_dual_are_refused(tmp_path):
    # a file of an older version, which held the raw PDFP dual and no
    # fingerprint, is refused with its path, not read in part
    spec = synth_fused_lasso(40, 6, 0.1, 0.01, seed=2)
    gt = compute_ground_truth(spec)
    path = tmp_path / "old.truth.npz"
    np.savez(path, x_star=gt.x_star, v_star=gt.v_star,
             v_star_pdfp=(gt.gamma / gt.lam) * gt.v_star, objective_star=gt.objective_star,
             residual=gt.residual, gamma=gt.gamma, lam=gt.lam, iterations=3000)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a ground truth file: "
                                         r"no fingerprint in it; rerun `spdfp truth`$"):
        load_ground_truth(path, spec)


def test_every_truncated_truth_file_is_refused_with_its_path(tmp_path):
    # each prefix of a truth file, the empty one among them: one ValueError
    # that names the file, and a load_problem next to it that parses
    spec = synth_fused_lasso(40, 6, 0.1, 0.01, seed=2)
    problem = save_problem(spec, tmp_path / "p")
    gt = GroundTruth(x_star=np.zeros(6), v_star=np.zeros(5), objective_star=0.0, residual=0.0,
                     gamma=1.0, lam=0.1, iterations=0)
    path = tmp_path / "p.problem.truth.npz"
    save_ground_truth(gt, path, load_problem(problem))
    raw = path.read_bytes()
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        with pytest.raises(ValueError) as err:
            load_ground_truth(path, spec)
        assert re.fullmatch(rf"{re.escape(str(path))}: not a ground truth file: .*; "
                            r"rerun `spdfp truth`", str(err.value)), (size, str(err.value))
    assert problem_fingerprint(load_problem(problem)) == problem_fingerprint(spec)


def same_bits(a, b):
    """Whether a and b are of one type and, as arrays, of one dtype, shape
    and bytes (so -0.0, the sign of a NaN and subnormals count)."""
    a_, b_ = np.asarray(a), np.asarray(b)
    return (type(a) is type(b) and a_.dtype == b_.dtype and a_.shape == b_.shape
            and a_.tobytes() == b_.tobytes())


def test_a_truth_file_holds_its_fields_and_gives_its_truth_back(tmp_path):
    # for a spec read from LIBSVM and one built in memory, whose data_sha256
    # is '': the file holds the fields of _TRUTH_FIELDS in their order, and
    # load_ground_truth gives the GroundTruth back bit for bit
    synth = synth_fused_lasso(40, 6, 0.1, 0.01, seed=2)
    read = load_problem(save_problem(synth, tmp_path / "p"))
    gt = GroundTruth(x_star=np.array([-0.0, np.nan, -np.inf, 5e-324, 1.0, -2.5]),
                     v_star=np.random.default_rng(4).standard_normal(5), objective_star=-0.0,
                     residual=5e-324, gamma=0.1 + 0.2, lam=1 / 3, iterations=2**40)
    for name, spec in (("read", read), ("synth", synth)):
        path = tmp_path / f"{name}.truth.npz"
        save_ground_truth(gt, path, spec)
        with np.load(path) as z:
            assert z.files == list(harness._TRUTH_FIELDS), name
            assert str(z["data_sha256"]) == (spec.dataset.data_sha256 or ""), name
        back = load_ground_truth(path, spec)
        for f in fields(GroundTruth):
            assert same_bits(getattr(back, f.name), getattr(gt, f.name)), (name, f.name)
    assert read.dataset.data_sha256 and synth.dataset.data_sha256 is None


@pytest.fixture(scope="module")
def small_truth(tmp_path_factory):
    """(problem path, spec, truth path, the truth file's arrays) of a 40 x 6
    problem saved with its truth in a directory of its own."""
    problem = save_problem(synth_fused_lasso(40, 6, 0.1, 0.01, seed=2),
                           tmp_path_factory.mktemp("truth") / "p")
    spec = load_problem(problem)
    gt = GroundTruth(x_star=np.zeros(6), v_star=np.zeros(5), objective_star=0.0, residual=0.0,
                     gamma=1.0, lam=0.1, iterations=0)
    path = problem + ".truth.npz"
    save_ground_truth(gt, path, spec)
    with np.load(path) as z:
        return problem, spec, path, {k: z[k] for k in z.files}


# dtypes of every kind a truth field might be damaged to, strings among them
OTHER_KINDS = (np.float64, np.int64, np.bool_, np.complex128, "U3", "S3")


@st.composite
def damaged_fields(draw, arrays):
    """The arrays of a truth file with one damage: a field missing, of
    another dtype kind, 0-d for 1-d or the other way round, of another
    fixed length, or CSR arrays and labels of the right kind and number of
    dimensions that SparseMatrix or Dataset refuses."""
    key = draw(st.sampled_from(list(harness._TRUTH_FIELDS)))
    arr = arrays[key]
    damage = draw(st.sampled_from(("missing", "kind", "ndim", "stored problem")))
    if damage == "missing":
        return {k: v for k, v in arrays.items() if k != key}
    if damage == "kind":
        kind = draw(st.sampled_from([t for t in OTHER_KINDS if np.dtype(t).kind != arr.dtype.kind]))
        return {**arrays, key: np.zeros(arr.shape, dtype=kind)}
    if damage == "ndim":
        return {**arrays, key: arr.reshape(1) if arr.ndim == 0 else np.asarray(arr[0])}
    (n, d), indptr = arrays["A_shape"], arrays["A_indptr"]
    swapped = indptr.copy()
    swapped[[1, 2]] = indptr[[2, 1]]
    stored = [("A_shape", np.array([n])), ("A_shape", np.array([n, d, 1])),
              ("A_shape", np.array([-1, d])), ("A_shape", np.array([n + 1, d])),
              ("A_shape", np.array([0, d])), ("A_shape", np.array([n, 0])),
              ("A_indptr", indptr[:-1]), ("A_indptr", indptr + 1), ("A_indptr", swapped),
              ("A_data", arrays["A_data"][:-1]), ("labels", arrays["labels"][:-1])]
    key, value = draw(st.sampled_from(stored))
    if draw(st.booleans()):  # a column index out of range instead
        indices = arrays["A_indices"].copy()
        indices[draw(st.integers(0, len(indices) - 1))] = draw(st.sampled_from([-1, d, 2**40]))
        key, value = "A_indices", indices
    return {**arrays, key: value}


@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_damaged_truth_field_is_refused_whole(small_truth, data):
    # load_ground_truth raises the one refusal that names the file, and
    # load_problem next to it parses the data file once, to the fresh spec
    problem, spec, path, arrays = small_truth
    np.savez(path, **data.draw(damaged_fields(arrays)))
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: not a ground truth file: "
                                         r".*; rerun `spdfp truth`$"):
        load_ground_truth(path, spec)
    parsed, real = [], harness.load_libsvm
    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "load_libsvm", lambda *a, **k: parsed.append(a) or real(*a, **k))
        assert problem_fingerprint(load_problem(problem)) == problem_fingerprint(spec)
    assert len(parsed) == 1


def test_truth_fingerprint_follows_every_input_of_the_truth(tmp_path):
    spec = synth_fused_lasso(40, 6, 0.1, 0.01, seed=2)
    own = problem_fingerprint(spec)
    # a saved and reloaded problem keeps its fingerprint
    assert problem_fingerprint(load_problem(save_problem(spec, tmp_path / "p"))) == own
    A = spec.dataset.samples
    other_A = SparseMatrix(A.n_rows, A.n_cols, A.indptr, A.indices, A.data * (1 + 1e-15))
    changed = [replace(spec, loss="logistic", dataset=Dataset(A, np.sign(spec.dataset.labels))),
               replace(spec, l2_weight=1e-3), replace(spec, composite_weight=0.2),
               replace(spec, dataset=Dataset(A, spec.dataset.labels + 1.0)),
               replace(spec, dataset=Dataset(other_A, spec.dataset.labels)),
               replace(spec, B=identity(6))]
    assert len({own, *map(problem_fingerprint, changed)}) == 1 + len(changed)
    with pytest.warns(RuntimeWarning, match="cap of 50"):
        gt = compute_ground_truth(spec, iters=50)
    save_ground_truth(gt, tmp_path / "t.npz", spec)
    assert load_ground_truth(tmp_path / "t.npz", spec).iterations == gt.iterations
    for other in changed[1:]:
        with pytest.raises(ValueError, match="t.npz: .*another problem"):
            load_ground_truth(tmp_path / "t.npz", other)


def test_default_gamma_follows_the_loss_curvature():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((30, 6))
    ds = Dataset(samples=SparseMatrix.from_dense(A), labels=rng.choice([-1.0, 1.0], 30))
    rho = float(np.linalg.eigvalsh(A @ A.T)[-1])
    for loss, c in (("logistic", 0.25), ("square", 1.0)):
        spec = ProblemSpec(loss=loss, dataset=ds, l2_weight=0.1, composite_weight=0.1,
                           B=identity(6))
        theta = spec.dataset.samples.spectrum.rho_max
        assert default_gamma(spec) == 1.0 / (c * theta / 30 + 0.1)
        assert default_gamma(spec) == pytest.approx(1.0 / (c * rho / 30 + 0.1), rel=1e-6)
        assert default_lambda(spec) == 0.9 / spec.B.spectrum.rho_max
    hinge = ProblemSpec(loss="hinge", dataset=ds, l2_weight=0.1, composite_weight=0.1,
                        B=identity(6))
    with pytest.raises(ValueError, match="hinge loss has no Lipschitz gradient"):
        default_gamma(hinge)


def test_hinge_needs_an_explicit_step():
    # the hinge loss has no Lipschitz gradient, so neither the truth nor a
    # pdfp clause may fall back on default_gamma; an explicit step is fine
    from spdfp.harness import SolverEntry, build_solver_configs

    rng = np.random.default_rng(14)
    ds = Dataset(samples=SparseMatrix.from_dense(rng.standard_normal((20, 4))),
                 labels=rng.choice([-1.0, 1.0], 20))
    spec = ProblemSpec(loss="hinge", dataset=ds, l2_weight=0.1, composite_weight=0.1,
                       B=identity(4))
    with pytest.raises(ValueError, match="hinge loss has no Lipschitz gradient"):
        compute_ground_truth(spec)
    cfg = SolverConfig(schedule=ConstantSchedule(0.5), lam=0.5, p=20)
    with pytest.warns(RuntimeWarning, match="cap of 50 iterations"):
        assert compute_ground_truth(spec, cfg=cfg, iters=50).iterations == 50
    auto = SolverEntry(kind="pdfp", label="pdfp", params={})
    with pytest.raises(ValueError, match="hinge loss has no Lipschitz gradient"):
        build_solver_configs(auto, spec, seed=0, epochs=1)
    given = SolverEntry(kind="pdfp", label="pdfp", params={"gamma": "0.25"})
    run_cfg, _ = build_solver_configs(given, spec, seed=0, epochs=1)
    assert run_cfg.schedule.c == 0.25


def test_ground_truth_needs_a_constant_step():
    # PDFP steps by schedule.c alone: a decaying schedule is refused, not
    # run as a constant one
    spec = synth_fused_lasso(20, 4, 0.1, 0.01, seed=3)
    cfg = SolverConfig(schedule=StepSchedule(0.1, 0.7), lam=0.1, p=20)
    with pytest.raises(ValueError, match="pdfp needs a constant step"):
        compute_ground_truth(spec, cfg=cfg)


def test_ground_truth_certificate_and_minimality():
    spec = synth_fused_lasso(200, 20, 0.05, 0.01, seed=6)
    gt = compute_ground_truth(spec, iters=2000)
    assert gt.residual <= 1e-8
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = gt.x_star + rng.standard_normal(20) * rng.uniform(0.01, 2.0)
        assert objective_value(spec, x) >= gt.objective_star - 1e-12


# ---------------------------------------------------------------------------
# experiment runs

def write_config(tmp_path, problem_line, solvers, reps=2, epochs=2, seed=11):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"problem = {problem_line}\n"
        f"solvers = {solvers}\n"
        f"repetitions = {reps}\n"
        f"epochs = {epochs}\n"
        f"output = out/run\n"
        f"master_seed = {seed}\n")
    return cfg


def test_solver_defaults_follow_loss(tmp_path):
    from spdfp.harness import SolverEntry, build_solver_configs

    rng = np.random.default_rng(12)
    A = rng.standard_normal((30, 6))
    y = rng.choice([-1.0, 1.0], 30)
    ds = Dataset(samples=SparseMatrix.from_dense(A), labels=y)
    logistic = ProblemSpec(loss="logistic", dataset=ds, l2_weight=0.1,
                           composite_weight=0.1, B=identity(6))
    entry = SolverEntry(kind="spdfp2", label="s", params={})
    cfg, _ = build_solver_configs(entry, logistic, seed=0, epochs=1)
    assert (cfg.schedule.c, cfg.schedule.alpha) == (2.0, 0.55)
    assert cfg.lam == 0.9 / logistic.B.spectrum.rho_max
    square = synth_fused_lasso(30, 6, 0.1, 0.01, seed=1)
    cfg, _ = build_solver_configs(entry, square, seed=0, epochs=1)
    assert (cfg.schedule.c, cfg.schedule.alpha) == (1.0, 0.7)
    assert cfg.lam == 0.9 / square.B.spectrum.rho_max
    entry2 = SolverEntry(kind="spdfp2", label="s", params={"c": "3", "alpha": "0.9"})
    cfg, _ = build_solver_configs(entry2, logistic, seed=0, epochs=1)
    assert (cfg.schedule.c, cfg.schedule.alpha) == (3.0, 0.9)
    # pdfp(gamma=auto) steps by default_gamma: 1/L on the kept estimate of A
    cfg, _ = build_solver_configs(SolverEntry(kind="pdfp", label="b", params={}), square,
                                  seed=0, epochs=1)
    assert cfg.schedule.c == 1.0 / (square.dataset.samples.spectrum.rho_max / 30
                                    + square.l2_weight)


def test_solver_clauses_reject_keys_their_kind_ignores():
    from spdfp.harness import SolverEntry, build_solver_configs

    spec = synth_fused_lasso(30, 6, 0.1, 0.01, seed=1)
    for kind, key in (("spdfp1", "stop_tol"), ("spdfp2", "stop_tol"), ("pdfp", "p"),
                      ("stoc_admm", "stop_tol"), ("stoc_admm", "lambda")):
        entry = SolverEntry(kind=kind, label="mine", params={key: "1e-3"})
        with pytest.raises(ValueError, match=f"solver mine: .*'{key}'"):
            build_solver_configs(entry, spec, seed=0, epochs=1)
    # a lambda below 1/rho_max(BB^T) = 0.268, which the clause's guard takes
    entry = SolverEntry(kind="pdfp", label="mine", params={"stop_tol": "1e-3", "lambda": "0.2"})
    cfg, _ = build_solver_configs(entry, spec, seed=0, epochs=1)
    assert (cfg.stop_tolerance, cfg.lam, cfg.p) == (1e-3, 0.2, spec.n)


def test_solver_clause_numbers_name_their_clause_and_key():
    from spdfp.harness import build_solver_configs

    spec = synth_fused_lasso(30, 6, 0.1, 0.01, seed=1)
    keys = {"pdfp": ("lambda", "gamma", "stop_tol"), "spdfp1": ("lambda", "p", "c", "alpha"),
            "spdfp2": ("p",), "stoc_admm": ("p", "beta", "zeta_c", "zeta_alpha")}
    for kind, names in keys.items():
        for key in names:
            kind_name = "int" if key == "p" else "float"
            for text in ("abc", "", "nan", "inf", "-inf") + ("1.5",) * (kind_name == "int"):
                entry = SolverEntry(kind=kind, label="mine", params={key: text})
                want = f"solver mine: {key} = {text!r} is not a finite {kind_name}"
                with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                    build_solver_configs(entry, spec, seed=0, epochs=1)
    # 'auto' and good numbers still go through, as parsed from a clause
    (entry,) = parse_solver_list("pdfp(lambda=auto, gamma=0.25, stop_tol=1e-3)")
    cfg, _ = build_solver_configs(entry, spec, seed=0, epochs=1)
    assert (cfg.lam, cfg.schedule.c, cfg.stop_tolerance) == (0.9 / spec.B.spectrum.rho_max,
                                                              0.25, 1e-3)


@pytest.mark.parametrize("clause", ["spdfp2(alpha=1.5)", "spdfp1(c=-1)", "spdfp2(p=0)",
                                    "stoc_admm(zeta_alpha=2)", "stoc_admm(beta=-1)",
                                    "pdfp(gamma=-1)", "pdfp(lambda=-2)", "pdfp(stop_tol=-1)",
                                    "spdfp1(p=5000)", "stoc_admm(p=31,label=big)"])
def test_clause_values_the_configs_refuse_name_their_clause(clause):
    # the schedules and configs refuse these values, and a batch larger
    # than the 30 samples is refused before any run makes a batch plan
    from spdfp.harness import build_solver_configs

    spec = synth_fused_lasso(30, 6, 0.1, 0.01, seed=1)
    (entry,) = parse_solver_list(clause)
    with pytest.raises(ValueError, match=f"^solver {entry.label}: "):
        build_solver_configs(entry, spec, seed=0, epochs=1)


def test_parse_solver_list():
    entries = parse_solver_list(
        "spdfp2(alpha=0.7,c=1.0,p=10); stoc_admm(beta=30,zeta_c=0.5,p=10,label=admm)")
    assert entries[0].kind == "spdfp2" and entries[0].params["alpha"] == "0.7"
    assert entries[1].label == "admm"
    with pytest.raises(ValueError):
        parse_solver_list("   ")
    # text outside the matched clauses is an error, not silently dropped
    with pytest.raises(ValueError, match="stoc_admm"):
        parse_solver_list("spdfp2(c=1.0) stoc_admm(beta=30")
    with pytest.raises(ValueError, match="garbage"):
        parse_solver_list("spdfp2(c=1.0) garbage pdfp()")
    # an unclosed clause does not take the next one into its last value
    with pytest.raises(ValueError, match=r"unexpected text 'pdfp\(gamma=0.1'"):
        parse_solver_list("pdfp(gamma=0.1 spdfp2(p=10)")
    assert [e.kind for e in parse_solver_list("spdfp2(c=1.0),pdfp() ;\n pdfp()")] == \
        ["spdfp2", "pdfp", "pdfp"]


def test_solver_clause_rejects_a_repeated_key():
    for text, key in (("spdfp2(p=10,p=20)", "p"), ("pdfp(); spdfp1(c=1, c = 2, p=4)", "c"),
                      ("stoc_admm(label=a,beta=2,label=b)", "label")):
        with pytest.raises(ValueError, match=rf"solvers: clause .* gives key '{key}' twice"):
            parse_solver_list(text)


def test_experiment_rejects_two_clauses_with_one_label(tmp_path):
    # the mean CSV averages the runs of a label: two clauses under one
    # label would be averaged together and written twice
    for text, label in (("pdfp(); pdfp(gamma=0.01)", "pdfp"),
                        ("spdfp2(label=a); pdfp(label=a); spdfp1()", "a")):
        with pytest.raises(ValueError, match=rf"solvers: label\(s\) \['{label}'\]"):
            ExperimentConfig(problem="synth:n=20,d=5", solvers=parse_solver_list(text),
                             repetitions=1, epochs=1, output=str(tmp_path / "o"),
                             master_seed=1)
        with pytest.raises(ValueError, match=rf"'{label}'"):
            parse_experiment_config(write_config(tmp_path, "synth:n=20,d=5", text))
    ExperimentConfig(problem="synth:n=20,d=5",
                     solvers=parse_solver_list("pdfp(); pdfp(gamma=0.01,label=small)"),
                     repetitions=1, epochs=1, output=str(tmp_path / "o"), master_seed=1)


# the solver-list parser on generated text: clauses of any kind, keys,
# values, labels, padding and separators parse to their SolverEntry tuple,
# and a corrupted list is refused with a ValueError that starts "solvers:"
NAMES = st.builds(str.__add__, st.sampled_from("abkpxyzAZ_"),
                  st.text(alphabet="abkpxyzAZ_019", max_size=5))
VALUES = st.text(alphabet="abeAZ019.+-", max_size=6)
PADS = st.sampled_from(["", " ", "  ", "\t"])
SEPARATORS = st.text(alphabet=" \t\n;,", min_size=1, max_size=3)


@st.composite
def solver_clauses(draw):
    """(text, entry) of one clause."""
    kind = draw(st.sampled_from(["pdfp", "spdfp1", "spdfp2", "stoc_admm"]) | NAMES)
    params = draw(st.dictionaries(NAMES.filter(lambda k: k != "label"), VALUES, max_size=4))
    items = list(params.items())
    label = draw(st.none() | NAMES)
    if label is not None:
        items.insert(draw(st.integers(0, len(items))), ("label", label))
    body = ",".join(draw(PADS) + k + draw(PADS) + "=" + draw(PADS) + v + draw(PADS)
                    for k, v in items) or draw(PADS)
    text = kind + draw(PADS) + "(" + body + ")"
    return text, SolverEntry(kind=kind, label=kind if label is None else label, params=params)


@st.composite
def solver_lists(draw):
    clauses = draw(st.lists(solver_clauses(), min_size=1, max_size=4))
    text = draw(PADS)
    for i, (clause, _) in enumerate(clauses):
        text += (draw(SEPARATORS) if i else "") + clause
    return text + draw(PADS), tuple(entry for _, entry in clauses)


@PROPERTY_SETTINGS
@given(solver_lists())
def test_generated_solver_lists_parse_to_their_entries(listing):
    text, entries = listing
    assert parse_solver_list(text) == entries


def corrupt_solver_list(draw, text, entries):
    """text with one defect the parser must refuse."""
    kinds = ["stray text", "unclosed clause", "item without '='", "repeated key",
             "separators only"]
    with_items = [e for e in entries if e.params or e.label != e.kind]
    if not with_items:
        kinds.remove("item without '='")
        kinds.remove("repeated key")
    kind = draw(st.sampled_from(kinds))
    if kind == "stray text":
        cut = draw(st.sampled_from([m.end() for m in re.finditer(r"\)", text)] + [0]))
        return text[:cut] + " " + draw(NAMES | st.sampled_from(["=", "x=1", "(", ")"])) + \
            " " + text[cut:]
    if kind == "unclosed clause":
        cut = draw(st.sampled_from([m.start() for m in re.finditer(r"\)", text)]))
        return text[:cut] + text[cut + 1:]
    if kind == "separators only":
        return draw(st.text(alphabet=" \t\n;,", max_size=4))
    entry = draw(st.sampled_from(with_items))
    i = entries.index(entry)
    clause = list(re.finditer(r"\w+\s*\(([^)]*)\)", text))[i]
    key = draw(st.sampled_from(sorted(entry.params) + ["label"] * (entry.label != entry.kind)))
    if kind == "repeated key":
        extra = f"{key}=1,"
    else:  # an item with its '=' dropped, put first in the clause
        extra = f"{key}1,"
    return text[:clause.start(1)] + extra + text[clause.start(1):]


@PROPERTY_SETTINGS
@given(solver_lists(), st.data())
def test_corrupted_solver_lists_are_refused(listing, data):
    text = corrupt_solver_list(data.draw, *listing)
    with pytest.raises(ValueError, match=r"^solvers: "):
        parse_solver_list(text)


def test_synth_source_rejects_unknown_keys():
    spec = resolve_problem("synth:n=20,d=5,seed=3,mu=0.2")
    assert spec.dataset.samples.shape == (20, 5) and spec.composite_weight == 0.2
    with pytest.raises(ValueError, match="size"):
        resolve_problem("synth:size=10,sed=3")
    with pytest.raises(ValueError, match="sed"):
        resolve_problem("synth:n=20,sed=3")
    with pytest.raises(ValueError, match="d5"):
        resolve_problem("synth:n=20,d5")


def test_synth_source_without_keys_takes_the_defaults():
    spec, want = resolve_problem("synth:"), synth_fused_lasso(**SYNTH_DEFAULTS)
    for got, ref in ((spec.dataset.samples, want.dataset.samples), (spec.B, want.B)):
        assert (got.n_rows, got.n_cols) == (ref.n_rows, ref.n_cols)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name).view(np.int64),
                                          getattr(ref, name).view(np.int64))
    np.testing.assert_array_equal(spec.dataset.labels.view(np.int64),
                                  want.dataset.labels.view(np.int64))
    # an empty item among keys is still an error
    with pytest.raises(ValueError, match="expected key=value, got ''"):
        resolve_problem("synth:seed=3,")


def test_synth_source_refuses_bad_numbers_and_repeated_keys():
    for source, message in (("synth:n=abc", ": n = 'abc' is not a finite int"),
                            ("synth:n=20,d=5.5", ": d = '5.5' is not a finite int"),
                            ("synth:n=20,seed=", ": seed = '' is not a finite int"),
                            ("synth:noise_sd=nan", ": noise_sd = 'nan' is not a finite float"),
                            ("synth:noise_sd=inf", ": noise_sd = 'inf' is not a finite float"),
                            ("synth:n=10,n=20", " gives key 'n' twice")):
        with pytest.raises(ValueError, match=f"^{re.escape(source + message)}$"):
            resolve_problem(source)
    # non-finite noise makes non-finite labels, through any caller
    for noise_sd in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="noise_sd must be finite"):
            synth_fused_lasso(20, 5, 0.1, noise_sd, seed=0)


def test_config_validation_names_offending_field(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = synth:n=20,d=5\nsolvers = pdfp()\nrepetitions = 1\n"
                   "epochs = 1\noutput = o\nmaster_seed = 1\nbogus = 3\n")
    with pytest.raises(ValueError, match="bogus"):
        parse_experiment_config(cfg)
    cfg.write_text("problem = synth:n=20,d=5\nsolvers = pdfp()\n"
                   "epochs = 1\noutput = o\nmaster_seed = 1\n")
    with pytest.raises(ValueError, match="repetitions"):
        parse_experiment_config(cfg)
    # numpy's SeedSequence refuses a negative seed only when the run starts
    cfg.write_text("problem = synth:n=20,d=5\nsolvers = pdfp()\nrepetitions = 1\n"
                   "epochs = 1\noutput = o\nmaster_seed = -5\n")
    with pytest.raises(ValueError, match="exp.cfg: master_seed = -5 is negative"):
        parse_experiment_config(cfg)


def test_experiment_config_refuses_a_negative_master_seed(tmp_path):
    # built directly, not parsed: a run would fail only inside NumPy's
    # SeedSequence, after the ground truth
    with pytest.raises(ValueError, match="^master_seed = -5 is negative$"):
        ExperimentConfig(problem="synth:n=20,d=5", solvers=parse_solver_list("pdfp()"),
                         repetitions=1, epochs=1, output=str(tmp_path / "o"), master_seed=-5)


def test_a_bad_last_clause_fails_before_the_truth_and_any_run(tmp_path, monkeypatch):
    import spdfp.harness as harness

    def never(*args, **kwargs):
        raise AssertionError("a truth or a run before every clause was checked")

    for name in ("compute_ground_truth", "load_ground_truth", "run_solver"):
        monkeypatch.setattr(harness, name, never)
    # a .problem file with a truth next to it, which the run would load
    problem = save_problem(synth_fused_lasso(40, 6, 0.1, 0.01, seed=2), tmp_path / "p")
    open(problem + ".truth.npz", "w").close()
    for source in ("synth:n=40,d=6,seed=2", "p.problem"):
        for solvers, label in (("spdfp2(p=10); pdfp(); spdfp1(p=5000)", "spdfp1"),
                               ("spdfp2(p=10); pdfp(gamma=-1,label=last)", "last")):
            cfg = parse_experiment_config(write_config(tmp_path, source, solvers))
            with pytest.raises(ValueError, match=f"^solver {label}: "):
                run_experiment(cfg)


def test_a_clause_whose_lambda_fails_the_guard_fails_before_the_truth_and_any_run(tmp_path,
                                                                                monkeypatch):
    # the lambda guard of every kind that reads lambda runs as the clause is
    # built, on the spectrum of B the runs would read, and names the clause
    from spdfp.harness import build_solver_configs

    def never(*args, **kwargs):
        raise AssertionError("a truth or a run before every clause was checked")

    for name in ("compute_ground_truth", "load_ground_truth", "run_solver"):
        monkeypatch.setattr(harness, name, never)
    spec = synth_fused_lasso(60, 8, 0.1, 0.01, seed=7)
    too_large = 1.5 / spec.B.spectrum.rho_max
    for clause in ("spdfp1", "spdfp2", "pdfp"):
        (entry,) = parse_solver_list(f"{clause}(lambda={too_large!r},label=last)")
        want = f"solver last: lambda={too_large!r} is not shown to satisfy 0 < lambda < "
        with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
            build_solver_configs(entry, spec, seed=0, epochs=1)
    cfg = parse_experiment_config(write_config(
        tmp_path, "synth:n=60,d=8,seed=7", "spdfp2(p=10); pdfp(); spdfp1(p=10,lambda=100)"))
    with pytest.raises(ValueError, match=r"^solver spdfp1: lambda=100\.0 is not shown"):
        run_experiment(cfg)
    # stoc_admm reads no lambda, so it has no guard to fail
    (entry,) = parse_solver_list("stoc_admm(p=10)")
    assert build_solver_configs(entry, spec, seed=0, epochs=1)[1] is not None


def test_csv_columns_are_the_run_record_fields():
    assert ([c.replace("wall_time_s", "wall_time") for c in CSV_COLUMNS]
            == [f.name for f in fields(RunRecord)])


def test_mean_cells_are_the_means_of_the_run_cells_to_the_bit(tmp_path):
    # with nine repetitions np.mean of each list of cells sums in another
    # order than a mean along the first axis of their stack; stoc_admm has
    # no a_k, so its mean cells are empty
    cfg = parse_experiment_config(write_config(
        tmp_path, "synth:n=60,d=10,seed=5",
        "spdfp2(c=1.0,alpha=0.7,p=10); stoc_admm(beta=10,zeta_c=0.5,p=10)", reps=9, epochs=6))

    def body(path):
        with open(path, newline="") as fh:
            return list(csv.reader(line for line in fh if not line.startswith("#")))

    rows_path, mean_path = run_experiment(cfg)
    rows, means = body(rows_path), body(mean_path)
    assert means[0] == [c for c in CSV_COLUMNS if c != "seed"]
    cells = {}
    for r in rows[1:]:
        cells.setdefault((r[0], r[2]), []).append(r[3:])
    assert len(means) - 1 == len(cells) == 2 * 7
    for m in means[1:]:
        reps = cells[m[0], m[1]]
        assert len(reps) == 9
        assert m[2:] == ["" if "" in col else repr(float(np.mean([float(c) for c in col])))
                         for col in zip(*reps)]


@pytest.mark.parametrize("reps", [1, 2, 9])
def test_mean_csv_bytes_are_one_np_mean_per_cell(tmp_path, reps):
    # the whole _mean.csv, byte for byte, against one np.mean per epoch and
    # column of the cells of run.csv (repr gives each float back exactly):
    # the 'wild' runs diverge after 14 or 15 epochs, so the means stop at the
    # epochs every repetition reached and hold inf and NaN, and stoc_admm's
    # a_k cells are empty
    cfg = parse_experiment_config(write_config(
        tmp_path, "synth:n=60,d=10,seed=5",
        "spdfp1(c=300,alpha=0.55,p=10,label=wild); pdfp(); "
        "stoc_admm(beta=10,zeta_c=0.5,p=10)", reps=reps, epochs=20))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows_path, mean_path = run_experiment(cfg)
    with open(rows_path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    preamble = [line for line in lines if line.startswith("#")]
    runs = {}
    for r in list(csv.reader(lines[len(preamble):]))[1:]:
        runs.setdefault(r[0], {}).setdefault(r[1], []).append(r[3:])
    want = io.StringIO(newline="")
    want.writelines(preamble)
    writer = csv.writer(want)
    writer.writerow([c for c in CSV_COLUMNS if c != "seed"])
    for label, by_seed in runs.items():
        assert len(by_seed) == reps
        for epoch, cells in enumerate(zip(*by_seed.values())):
            writer.writerow([label, epoch] + [
                "" if "" in col else repr(float(np.mean([float(c) for c in col])))
                for col in zip(*cells)])
    with open(mean_path, "rb") as fh:
        assert fh.read() == want.getvalue().encode()
    assert {len(cells) for cells in runs["wild"].values()} <= {15, 16}


def test_experiment_zero_epochs_single_row(tmp_path):
    cfg = parse_experiment_config(write_config(
        tmp_path, "synth:n=40,d=8,seed=3", "spdfp2(c=1.0,alpha=0.7,p=8); pdfp()",
        reps=1, epochs=0))
    rows_path, mean_path = run_experiment(cfg)
    rows = read_csv_rows(rows_path)
    assert rows[0][0] == "solver"          # header
    assert len(rows) == 3                  # header + one initial row per solver
    assert {r[2] for r in rows[1:]} == {"0"}


def test_experiment_deterministic_rerun(tmp_path):
    line = "synth:n=60,d=10,seed=4"
    solvers = "spdfp2(c=1.0,alpha=0.7,p=10); stoc_admm(beta=10,zeta_c=0.5,p=10)"
    cfg1 = parse_experiment_config(write_config(tmp_path, line, solvers))
    r1, m1 = run_experiment(cfg1)
    first_rows = read_csv_rows(r1)
    first_means = read_csv_rows(m1, wall_col=2)
    r2, m2 = run_experiment(cfg1)
    assert read_csv_rows(r2) == first_rows
    assert read_csv_rows(m2, wall_col=2) == first_means


def test_experiment_solver_lines_name_what_each_kind_reads(tmp_path):
    # stoc_admm never reads lambda and pdfp steps on every sample, so
    # their lines leave out lambda= and p= respectively
    solvers = ("spdfp1(c=1.0,p=10); spdfp2(alpha=0.7,p=20,lambda=0.1); "
               "pdfp(stop_tol=1e-9,label=batch); stoc_admm(beta=10,zeta_c=0.5,p=10)")
    cfg = parse_experiment_config(write_config(tmp_path, "synth:n=60,d=10,seed=4", solvers,
                                               reps=1, epochs=1))
    rows_path, mean_path = run_experiment(cfg)
    lam = repr(0.9 / estimate_spectrum(resolve_problem(cfg.problem).B).rho_max)
    for path in (rows_path, mean_path):
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.startswith("# solver ")]
        assert lines == [f"# solver spdfp1: kind=spdfp1 c=1.0 lambda={lam} p=10",
                         "# solver spdfp2: kind=spdfp2 alpha=0.7 lambda=0.1 p=20",
                         f"# solver batch: kind=pdfp stop_tol=1e-9 lambda={lam}",
                         "# solver stoc_admm: kind=stoc_admm beta=10 zeta_c=0.5 p=10"]


def test_experiment_aggregate_means_and_rel_error_floor(tmp_path):
    cfg = parse_experiment_config(write_config(
        tmp_path, "synth:n=60,d=10,seed=5", "spdfp2(c=1.0,alpha=0.7,p=10)",
        reps=3, epochs=4))
    rows_path, mean_path = run_experiment(cfg)
    rows = [r for r in read_csv_rows(rows_path)[1:]]
    means = [r for r in read_csv_rows(mean_path, wall_col=2)[1:]]
    # independent recomputation of the per-epoch mean across repetitions
    for epoch in range(5):
        vals = [float(r[4]) for r in rows if int(r[2]) == epoch]
        agg = [float(m[3]) for m in means if int(m[1]) == epoch]
        assert agg[0] == pytest.approx(np.mean(vals), rel=1e-12, abs=1e-15)
    # relative objective error never dips below the -1e-10 slack
    for r in rows:
        assert float(r[5]) >= -1e-10


def test_experiment_means_cover_the_epochs_every_diverged_repetition_reached(tmp_path):
    # with c = 40 and p = 1 a repetition overflows, or not, at an epoch that
    # depends on its seed
    cfg = parse_experiment_config(write_config(
        tmp_path, "synth:n=40,d=6,perturb_frac=0.1,noise_sd=0.01,seed=2",
        "spdfp1(c=40,alpha=0.7,p=1)", reps=4, epochs=30))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows_path, mean_path = run_experiment(cfg)
    rows = read_csv_rows(rows_path)[1:]
    lengths = [sum(r[1] == seed for r in rows) for seed in dict.fromkeys(r[1] for r in rows)]
    assert len(lengths) == 4 and min(lengths) < max(lengths) <= 31
    assert sum("diverged" in str(w.message) for w in caught) == sum(n < 31 for n in lengths)
    means = read_csv_rows(mean_path, wall_col=2)[1:]
    assert [int(m[1]) for m in means] == list(range(min(lengths)))
    for m in means:
        vals = [float(r[4]) for r in rows if r[2] == m[1]]
        assert float(m[3]) == pytest.approx(np.mean(vals), rel=1e-12)


def test_experiment_four_alpha_sweep_groups(tmp_path):
    solvers = "; ".join(
        f"spdfp2(c=1.0,alpha={a},p=10,label=a{a})" for a in (0.3, 0.5, 0.7, 1.0))
    cfg = parse_experiment_config(write_config(
        tmp_path, "synth:n=60,d=10,seed=9", solvers, reps=2, epochs=3))
    rows_path, mean_path = run_experiment(cfg)
    rows = read_csv_rows(rows_path)[1:]
    labels = {r[0] for r in rows}
    assert labels == {"a0.3", "a0.5", "a0.7", "a1.0"}
    for lab in labels:
        group = [r for r in rows if r[0] == lab]
        assert len(group) == 2 * 4  # 2 repetitions x (initial + 3 epochs)
    means = read_csv_rows(mean_path, wall_col=2)[1:]
    assert {m[0] for m in means} == labels


def test_experiment_problem_file_and_truth_cache(tmp_path):
    spec = synth_fused_lasso(50, 8, 0.1, 0.02, seed=8)
    prob = save_problem(spec, tmp_path / "p")
    cfg = parse_experiment_config(write_config(tmp_path, "p.problem",
                                               "pdfp(stop_tol=1e-9)",
                                               reps=1, epochs=500))
    rows_path, _ = run_experiment(cfg)
    rows = read_csv_rows(rows_path)
    # pdfp stops early once the residual tolerance is met
    assert len(rows) - 1 < 501
    assert float(rows[-1][5]) <= 1e-5


def test_each_operator_estimated_once_per_run(tmp_path, monkeypatch):
    # every estimate goes through SparseMatrix.spectrum, which calls
    # spdfp.sparse.estimate_spectrum once per matrix object; each spec is
    # built after the patch, so none holds an estimate from before it
    import spdfp.sparse

    calls = []
    real = spdfp.sparse.estimate_spectrum

    def counting(M, *args, **kwargs):
        calls.append(M)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(spdfp.sparse, "estimate_spectrum", counting)

    def count(rows):
        return sum(M.n_rows == rows for M in calls)

    # the truth estimates A (its step) and B (its lambda and the guard); the
    # runs, default_lambda and a second truth on the same spec reuse them
    spec = synth_fused_lasso(40, 6, 0.1, 0.01, seed=2)
    truth = compute_ground_truth(spec, iters=50)
    assert count(40) == 1 and count(5) == 1  # A is 40 x 6, B is 5 x 6
    cfg = SolverConfig(schedule=StepSchedule(1.0, 0.7), lam=default_lambda(spec), p=10)
    for kind in ("pdfp", "spdfp1", "spdfp2"):
        run_cfg = replace(cfg, schedule=ConstantSchedule(truth.gamma)) if kind == "pdfp" else cfg
        run_solver(kind, spec, prox_for(spec), run_cfg, reference=truth.reference())
    compute_ground_truth(spec, iters=1)
    assert count(40) == 1 and count(5) == 1

    # a truth cached next to the problem file holds both estimates of its
    # spec, which the run's own spec takes: no Lanczos at all
    problem = save_problem(synth_fused_lasso(40, 6, 0.1, 0.01, seed=2), tmp_path / "p")
    save_ground_truth(truth, problem + ".truth.npz", spec)
    for solvers in ("pdfp()", "pdfp(gamma=0.5)", "pdfp(); spdfp2(p=10); pdfp(label=again)"):
        calls.clear()
        cfg = ExperimentConfig(problem=problem, solvers=parse_solver_list(solvers),
                               repetitions=3, epochs=1, output=str(tmp_path / "run"),
                               master_seed=1)
        run_experiment(cfg)
        assert calls == [], solvers

    # no truth at all: the truth and every pdfp(gamma=auto) clause share one
    # estimate of A, and the truth, the clauses and the guard one of B
    for solvers in ("spdfp2(p=10)", "pdfp(); spdfp2(p=10); pdfp(label=again)"):
        calls.clear()
        cfg = ExperimentConfig(problem="synth:n=40,d=6,seed=2,perturb_frac=0.1",
                               solvers=parse_solver_list(solvers),
                               repetitions=2, epochs=1, output=str(tmp_path / "run"),
                               master_seed=1)
        run_experiment(cfg)
        assert count(5) == 1 and count(40) == 1, solvers
