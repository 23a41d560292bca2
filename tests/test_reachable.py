"""Only code a command reaches stays in ``src/``.

A fixed list of tiny CLI calls runs in-process under ``sys.setprofile``,
one per command and branch.  Every public function and method that ``ast``
finds in ``src/mmda_lab/*.py`` must be reached by one of them, traced by
the benchmark (``perfbench/spans.py`` replaces those by name), or named in
``ALLOWED`` with the reason it stays.  An entry that a call now reaches,
or whose name is gone, fails too, so the list only ever names live code.

Frames are matched by ``(file, co_firstlineno)``, which works from
Python 3.10; a decorated function's code starts at its first decorator.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import mmda_lab
from mmda_lab import cli
from mmda_lab.scans import FUNCTIONS

SRC = Path(mmda_lab.__file__).parent     # as the code objects name their files
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

#: name -> the reason it stays in src/ with no command reaching it; an item
#: is an open item of ROADMAP.md
ALLOWED = {
    "scalars.iv_pow_int": "staged for item 1 (b)",
    "shadow.ShadowModel.pair_probability": "staged for item 7 (a)",
    "shadow.ShadowModel.conditional_probability": "the reference for the class-engine walks",
    **dict.fromkeys(["shadow.IndependentFamily.support", "shadow.IndependentFamily.value"],
                    "item 10 (a); ShadowModel.symmetric names the class"),
    **dict.fromkeys(["instances.SingleVertices.key", "instances.SingleVertices.classes",
                     "instances.SingleVertices.neighbours"],
                    "the generic partition only the negative controls use (items 7 (b) and 10)"),
    "instances.ClassSums.edge": "only the traced conditional_report calls it",
    "instances.LayeredInstance.in_degree": "part of the interface",
}


def _traced() -> set:
    """The names the benchmark's tracer replaces, allowed as "traced by the
    benchmark (item 8 (b))": they stay in src/ while perfbench/ names them."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {f"{module}.{attr}" for module, attr, _ in mod.TARGETS}


def _is_stub(node) -> bool:
    """A body of ``raise NotImplementedError``, a docstring aside."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and isinstance(body[0].exc, ast.Name) and body[0].exc.id == "NotImplementedError")


def public_functions() -> dict:
    """(file, first line) -> qualified name of every public module-level
    function and method of a module-level class, stubs left out."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(path.stem, n) for n in tree.body]
        scopes += [(f"{path.stem}.{c.name}", n) for c in tree.body
                   if isinstance(c, ast.ClassDef) and not c.name.startswith("_") for n in c.body]
        for prefix, node in scopes:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_") and not _is_stub(node)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[str(path), first] = f"{prefix}.{node.name}"
    return found


def _calls(tmp: Path) -> list:
    example = str(tmp / "example.json")
    calls = [["build", "--kind", kind, "--k", "2", "--m", "4"] for kind in cli.KINDS]
    calls += [
        ["build", "--kind", "example", "--out", example],
        ["bruteforce", "--instance-file", example],
        ["verify-lp", "--m", "4"],
        ["verify-lp", "--m", "4", "--subtrees"],
        ["verify-paths", "--m", "4", "--rounds", "2"],
        ["verify-paths", "--m", "4", "--rounds", "2", "--mode", "symbolic"],
        ["verify-paths", "--m", "16", "--eps", "1/2", "--mode", "symbolic"],
        ["count-paths", "--m", "4"],
        ["count-paths", "--m", "4", "--samples", "5", "--seed", "1"],
        ["sa1-report", "--m", "4"],
        ["sa1-report", "--m", "4", "--events", "all"],
        ["shadow-sample", "--m", "4", "--samples", "20", "--seed", "1"],
        ["shadow-sample", "--m", "4", "--samples", "20", "--seed", "1", "--rounds", "2"],
        ["bruteforce", "--m", "4", "--budget", "50"],
        ["bruteforce", "--kind", "example"],
        ["certificate", "--m", "8"],
        ["locally-good", "--m", "4", "--seeds", "1"],
        ["ra", "--k", "3", "--eps", "1/3"],
        ["ra", "--k", "3", "--eps", "1/3", "--cond", "1"],
        ["ra", "--k", "3", "--eps", "1/3", "--alpha", "2"],
        ["ra", "--k", "3", "--eps", "1/3", "--alpha", "1"],
        ["appendixb", "--k", "2"],
        ["appendixc", "--k", "2"],
    ]
    domains = {"f1_appendix": ("2", "2001/1000"), "f2_appendix": ("1999/1000", "2")}
    calls += [["scan", "--fn", fn, "--lo", lo, "--hi", hi, "--points", "2"]
              for fn in FUNCTIONS for lo, hi in [domains.get(fn, ("1/1000", "1/100"))]]
    return calls


def _clear_memos():
    """Empty every module-level memo (``build_parser``, ``precision_cap``,
    the interval caches), so that what earlier tests left in them cannot
    hide the calls that fill them."""
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            for obj in vars(importlib.import_module(f"mmda_lab.{path.stem}")).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def reached_lines(tmp: Path) -> set:
    """(file, first line) of every src/ frame the calls enter."""
    _clear_memos()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for argv in _calls(tmp):
            sys.setprofile(profile)
            try:
                code = cli.main(argv)
            finally:
                sys.setprofile(None)
            assert code in (0, 3, 4), (argv, code, out.getvalue()[-500:])
    src = str(SRC)
    return {(c.co_filename, c.co_firstlineno) for c in codes if c.co_filename.startswith(src)}


@pytest.fixture(scope="module")
def verdict(tmp_path_factory):
    names = public_functions()
    reached = reached_lines(tmp_path_factory.mktemp("reach"))
    unreached = {name for where, name in names.items() if where not in reached}
    return set(names.values()), unreached


def test_every_public_function_is_reached_or_allowed(verdict):
    _, unreached = verdict
    left = sorted(unreached - set(ALLOWED) - _traced())
    assert not left, f"no command reaches these; delete them, move them into the tests, " \
                     f"or allow them with a reason: {left}"


def test_allowlist_is_live(verdict):
    names, unreached = verdict
    gone, reached = sorted(set(ALLOWED) - names), sorted(set(ALLOWED) & names - unreached)
    assert not gone, f"allowed names that are gone: {gone}"
    assert not reached, f"allowed names that a call now reaches: {reached}"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_finder_sees_methods_decorators_and_stubs():
    names = public_functions().values()
    assert "cli.main" in names and "scalars.Interval.lo" in names     # a property
    assert "instances.LabeledInstance.label" in names
    assert "instances.LayeredInstance.layer_size" not in names         # a stub
    assert not any(part.startswith("_") for n in names for part in n.split("."))
