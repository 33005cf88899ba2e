import ast
import os
import re
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_no_ignored_file_is_tracked():
    """Generated files (built libraries, egg-info, logs) stay untracked."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    inside = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                            capture_output=True, text=True)
    if inside.returncode != 0 or inside.stdout.strip() != "true":
        pytest.skip("not a git checkout")
    out = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout == ""


def test_no_cython_or_python_c_api():
    """The one compiled lane is hand-written C that ctypes loads: no Cython
    sources and no C file that includes the Python C-API."""
    sources = []
    for here, _, files in os.walk(os.path.join(ROOT, "src")):
        sources += [os.path.join(here, f) for f in files]
    assert not [f for f in sources if f.endswith((".pyx", ".pxd"))]
    c_files = [f for f in sources if f.endswith(".c")]
    assert [os.path.basename(f) for f in c_files] == ["lane.c"]
    for path in c_files:
        with open(path, encoding="utf-8") as fh:
            assert "Python.h" not in fh.read()


def test_c_lane_exports_only_its_step_entry_points():
    """lane.c runs steps and nothing else: every function it defines is
    static except the run's size, the lane's version, the steps (with the
    step-size factors of their records) and RowView's products."""
    with open(os.path.join(ROOT, "src", "spdfp", "_kernels", "lane.c"), encoding="utf-8") as fh:
        source = fh.read()
    # a definition starts at column 0: return type, name, parameters, body
    definitions = re.findall(r"^([A-Za-z_][\w \t*]*?)\b(\w+)\(([^;{]*)\)\s*\{", source, re.M)
    exported = sorted(name for head, name, _ in definitions if not head.startswith("static"))
    assert exported == ["spdfp_lane_version", "spdfp_rows", "spdfp_run_size",
                        "spdfp_run_steps"]
    static = {name for head, name, _ in definitions if head.startswith("static")}
    assert {"matvec", "sweep", "rmatvec", "soft", "gradient"} <= static


def c_struct_fields(source, name):
    """The fields of lane.c's 'typedef struct { ... } name;' in order, as
    (field, kind): kind is 'int64', 'double', 'pointer' or the name of the
    struct type a field is of."""
    source = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    body = re.search(r"typedef struct \{([^}]*)\}\s*" + name + r"\s*;", source).group(1)
    fields = []
    for declaration in filter(None, (d.strip() for d in body.split(";"))):
        c_type, declarators = re.fullmatch(r"(?:const\s+)?(\w+)\s+(.+)", declaration,
                                           re.S).groups()
        for declarator in declarators.split(","):
            field = declarator.strip()
            kind = {"int64_t": "int64", "double": "double"}.get(c_type, c_type)
            fields.append((field.lstrip("*").strip(), "pointer" if field[0] == "*" else kind))
    return fields


def test_c_structs_and_their_ctypes_mirrors_agree():
    """_kernels._Csr and _Run name lane.c's csr and run fields in their
    order, each of the same kind: the loader's spdfp_run_size check cannot
    tell two fields of one size apart."""
    import ctypes

    from spdfp import _kernels

    kinds = {ctypes.c_int64: "int64", ctypes.c_double: "double", ctypes.c_void_p: "pointer",
             _kernels._Csr: "csr"}
    with open(os.path.join(ROOT, "src", "spdfp", "_kernels", "lane.c"), encoding="utf-8") as fh:
        source = fh.read()
    for name, mirror in (("csr", _kernels._Csr), ("run", _kernels._Run)):
        assert c_struct_fields(source, name) == [(f, kinds[t]) for f, t in mirror._fields_]


def test_build_requires_only_what_setup_py_imports():
    """The build needs what setup.py imports, and nothing else: the C lane
    is compiled without NumPy headers."""
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        requires = tomllib.load(fh)["build-system"]["requires"]
    with open(os.path.join(ROOT, "setup.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert {re.match(r"[A-Za-z0-9_.\-]+", r).group(0) for r in requires} == imported


def test_every_export_is_a_name_of_the_package():
    """Every name in spdfp.__all__ resolves on the package and is defined in
    an spdfp module, so a stale export fails here, not in a user's import."""
    import spdfp

    assert len(set(spdfp.__all__)) == len(spdfp.__all__)
    for name in spdfp.__all__:
        assert hasattr(spdfp, name), name
        module = getattr(getattr(spdfp, name), "__module__", None)
        assert module is not None and module.split(".")[0] == "spdfp", (name, module)


def functions_where(accept):
    """The names, as module.function or module.Class.function, of the
    functions of src/spdfp whose own body (not that of a function within
    it) holds a node accept takes; module is the file's path under
    src/spdfp without '.py'."""
    found = set()

    class Nodes(ast.NodeVisitor):
        def __init__(self, module):
            self.where = [module]

        def visit(self, node):
            named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if named:
                self.where.append(node.name)
            if accept(node):
                found.add(".".join(self.where))
            self.generic_visit(node)
            if named:
                self.where.pop()

    package = os.path.join(ROOT, "src", "spdfp")
    for here, _, files in os.walk(package):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(here, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            Nodes(os.path.relpath(os.path.join(here, name[:-3]), package)).visit(tree)
    return found


def functions_that_call(accept):
    """functions_where, of the calls accept takes."""
    return functions_where(lambda node: isinstance(node, ast.Call) and accept(node))


def test_two_functions_pick_the_lane():
    """Outside spdfp._kernels, _kernels.LANE is read in two places only: the
    steps of a run and RowView's products, at each call, pick their lane
    there, and every other C call (the records' step-size factors among
    them) goes through those."""
    def reads_lane(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "LANE")
                or (isinstance(node, ast.Name) and node.id == "LANE")
                or (isinstance(node, ast.alias) and node.name == "LANE"))

    outside = {f for f in functions_where(reads_lane) if not f.startswith("_kernels")}
    assert outside == {"solvers._steps", "sparse.RowView._c_products"}


def called_name(call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def test_every_row_view_is_one_its_matrix_keeps():
    """RowView is made in SparseMatrix.row_view alone, so every view in the
    package is the one its matrix keeps for its row range, and products
    over the same rows never set them up twice."""
    made = functions_that_call(lambda call: called_name(call) == "RowView")
    assert made == {"sparse.SparseMatrix.row_view"}


def test_truth_files_have_one_reader():
    """np.load is called in one function, so no two readers of the truth
    file can disagree on what they accept."""
    def np_load(call):
        f = call.func
        return (isinstance(f, ast.Attribute) and f.attr == "load"
                and isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy"))

    assert functions_that_call(np_load) == {"harness._read_truth"}


def test_truth_files_have_one_writer():
    """np.savez is called in one function, which writes every field of
    harness._TRUTH_FIELDS, so no writer makes a file the reader refuses."""
    def np_savez(call):
        f = call.func
        return (isinstance(f, ast.Attribute) and f.attr.startswith("savez")
                and isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy"))

    assert functions_that_call(np_savez) == {"harness.save_ground_truth"}


def test_text_input_is_decoded_in_one_function():
    """The .problem, .cfg, B.txt and LIBSVM files are decoded by one reader:
    no text-mode open() for reading, TextIOWrapper or decode() elsewhere."""
    def decodes(call):
        if called_name(call) in ("TextIOWrapper", "decode", "StringIO", "read_text"):
            return True
        if called_name(call) != "open" or not isinstance(call.func, ast.Name):
            return False
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
        return not isinstance(mode, ast.Constant) or not set("bwax") & set(mode.value)

    assert functions_that_call(decodes) == {"harness._text_lines"}
