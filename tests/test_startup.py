"""Start-up: a command loads only the modules it runs, the package
exports its names lazily, each resolving to its defining module's object,
the names kept only for the benchmark's tracer stay unexported and unread,
no module imports a name it never reads, and the console script names the
CLI's entry point."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bernbound

SRC = Path(__file__).resolve().parents[1] / "src"

# Each exported name under the module that defines it.
EXPORTS = {
    "errors": [
        "BadEdge", "BernboundError", "BudgetExhausted", "DegenerateSimplex",
        "DegreeMismatch", "DegreeTooLow", "DenominatorNotPositive",
        "DimensionMismatch", "InvalidArgument", "NonPositiveClaim",
        "NonPositiveEpsilon", "SimplexMismatch",
    ],
    "rationals": ["Interval", "parse_rational", "format_rational"],
    "indexing": ["enumerate_indices"],
    "powerpoly": ["PowerPoly"],
    "geometry": ["Simplex", "barycentric", "round_length", "standard_simplex"],
    "polypatch": ["BernsteinPatch", "to_bernstein"],
    "ratpatch": [
        "ClaimedMinimum", "ConvergenceConstants", "RationalPatch", "Sharpness",
        "apriori_degree_omega", "apriori_degree_pr", "apriori_depth",
        "apriori_steps", "convergence_constants", "rational_patch",
    ],
    "certify": [
        "AprioriInfo", "CertificateReport", "Mode", "Verdict", "Witness",
        "certify_global", "certify_local", "certify_negative", "certify_sharpness",
    ],
    "optimize": ["MinimizationResult", "minimize"],
}
NAMES = [name for names in EXPORTS.values() for name in names]

# Names no library code reads, each under its module: ``bench/tracing.py``
# finds them there by name, and tests read them as oracles, until the
# tracer goes (ROADMAP items 10 and 16).  The traced methods below read two.
TRACER_ONLY = {
    "affine_pullback": "geometry", "bisect_edge": "geometry",
    "diameter_sq": "geometry", "longest_edge": "geometry",
    "SecondDifferences": "polypatch", "to_bernstein_standard": "polypatch",
    "cert_predicate": "certify", "local_bounds": "optimize",
}
TRACED_READERS = {"BernsteinPatch.split_edge", "BernsteinPatch.second_differences"}

# Runs one command (or, with no arguments, a bare import) in a fresh
# interpreter and prints the modules it added to those loaded at start-up.
PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
before = set(sys.modules)
if argv:
    from bernbound.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
else:
    import bernbound
    code = 0
print(json.dumps({"code": code, "added": sorted(set(sys.modules) - before)}))
"""

SPEC = {
    "numerator": {"dimension": 1, "terms": [
        {"exponents": [0], "coeff": "1"},
        {"exponents": [1], "coeff": "-5"},
        {"exponents": [2], "coeff": "7"},
    ]},
    "denominator": {"dimension": 1, "terms": [
        {"exponents": [0], "coeff": "7"},
        {"exponents": [1], "coeff": "-2"},
        {"exponents": [2], "coeff": "1"},
    ]},
    "domain": {"interval": ["-1", "1"]},
}


def _fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _added(argv):
    out = json.loads(_fresh(PROBE, json.dumps(argv)).splitlines()[-1])
    assert out["code"] == 0, argv
    return set(out["added"])


class TestStartUp:
    @pytest.fixture(scope="class")
    def spec(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("startup") / "dip.json"
        path.write_text(json.dumps(SPEC), encoding="utf-8")
        return str(path)

    def test_bare_import_loads_no_submodule(self):
        assert _added([]) == {"bernbound"}

    def test_bounds(self, spec):
        added = _added(["bounds", spec])
        assert "bernbound.ratpatch" in added
        assert not added & {"dataclasses", "inspect", "bernbound.certify",
                            "bernbound.optimize"}

    def test_certify(self, spec):
        added = _added(["certify", spec, "--mode", "global", "--kmax", "60"])
        assert "bernbound.certify" in added
        assert not added & {"dataclasses", "bernbound.optimize"}

    def test_minimize(self, spec):
        added = _added(["minimize", spec, "--eps", "1/100"])
        assert "bernbound.optimize" in added
        assert not added & {"dataclasses", "bernbound.certify"}

    def test_submodule_after_bare_import(self):
        out = _fresh("import bernbound; print(bernbound.certify.K_MAX)")
        assert out == "30\n"


class TestExports:
    def test_names_resolve_to_their_modules(self):
        assert sorted(bernbound.__all__) == sorted(NAMES)
        assert len(NAMES) == 44
        for module, names in EXPORTS.items():
            owner = importlib.import_module(f"bernbound.{module}")
            assert getattr(bernbound, module) is owner
            for name in names:
                assert getattr(bernbound, name) is getattr(owner, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from bernbound import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(NAMES)

    def test_dir_lists_names_and_modules(self):
        public = {name for name in dir(bernbound) if not name.startswith("_")}
        assert public - {"cli"} == set(NAMES) | set(EXPORTS)
        assert "__version__" in dir(bernbound)

    def test_unknown_name(self):
        with pytest.raises(AttributeError,
                           match=r"^module 'bernbound' has no attribute 'nope'$"):
            bernbound.nope

    def test_readme_counts_the_exports(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        (count,) = re.findall(r"The package exports (\d+) names", readme)
        assert int(count) == len(bernbound.__all__)


def _readers(paths, name):
    """The code of the modules ``paths`` that reads ``name`` as a name or an
    attribute: the top-level function or class, or the method as
    ``Class.method``, that holds the read, or the module's name for a read
    outside any definition."""
    found = set()
    for path in paths:
        units = []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                units += [(f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                           else node.name, item) for item in node.body]
            else:
                units.append((getattr(node, "name", path.stem), node))
        for owner, node in units:
            if any((n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)) == name
                   for n in ast.walk(node)):
                found.add(owner)
    return found


@pytest.mark.parametrize("name", sorted(TRACER_ONLY))
def test_tracer_only_names_stay_defined_and_unread(name):
    # These names wait for the tracer to go: none is exported, each is
    # still where the tracer looks it up, and the library reads none of
    # them outside their own definitions and the traced methods, so their
    # deletion will delete no behaviour.
    assert name not in bernbound.__all__
    assert name in vars(importlib.import_module(f"bernbound.{TRACER_ONLY[name]}"))
    readers = _readers(sorted((SRC / "bernbound").glob("*.py")), name)
    assert readers - set(TRACER_ONLY) - TRACED_READERS == set()


def _unread_imports(path):
    """The names ``path`` imports (``__future__`` aside) and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", sorted(p for p in (SRC / "bernbound").glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_import_is_read(path):
    # Each import costs start-up time, so a module imports only what it reads.
    assert _unread_imports(path) == []


def _orphan_helpers(paths):
    """The top-level private functions and classes (dunder names aside) of
    the modules ``paths`` that no code in them reads outside the helper's
    own definition, as ``module.name``."""
    helpers, reads = {}, []
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(node, "name", None)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and name.startswith("_")
                    and not name.startswith("__")):
                helpers[name] = f"{path.stem}.{name}"
            reads.append((name, {n.id if isinstance(n, ast.Name) else n.attr
                                 for n in ast.walk(node)
                                 if isinstance(n, (ast.Name, ast.Attribute))}))
    return sorted(where for name, where in helpers.items()
                  if not any(name in names for owner, names in reads if owner != name))


def test_every_private_helper_is_read():
    # A private helper serves the library alone, so one that nothing in
    # the library reads (say, after its last caller inlined it) is dead.
    assert _orphan_helpers(sorted((SRC / "bernbound").glob("*.py"))) == []


def test_console_script_names_the_entry_point():
    # The subprocess tests run main_entry through ``python -m bernbound.cli``;
    # this checks that pyproject.toml points the ``bernbound`` script at it.
    # Python 3.10 has no tomllib, so the line is read with a regex.
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^\[project\.scripts\]\nbernbound = "([\w.]+):(\w+)"$', text, re.M)
    assert match, "no bernbound line under [project.scripts]"
    assert match.groups() == ("bernbound.cli", "main_entry")
    assert callable(getattr(importlib.import_module(match[1]), match[2]))
