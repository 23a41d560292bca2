"""Start-up stays cheap: the CLI imports neither numpy, which only the
sampler needs, nor dataclasses, whose records generate their methods at
import; and the records that replace them keep their semantics."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mmda_lab.cli import EXIT_PASS
from mmda_lab.configgap import build_config_solution, sa1_defeats
from mmda_lab.instances import InstanceParams, build_config_lp_gap, make_params
from mmda_lab.integral import (bruteforce_best, counting_certificate,
                               single_path_solution)
from mmda_lab.restricted import build_lower_bound, canonicalize
from mmda_lab.scans import scan_proof_function
from mmda_lab.shadow import ConditionEvent

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_starts_without_numpy_and_the_sampler_loads_it(tmp_path):
    # a fresh interpreter: the test session has loaded numpy already
    out = tmp_path / "report.json"
    argv = ["shadow-sample", "--m", "4", "--samples", "3", "--out", str(out)]
    script = ("import sys, mmda_lab.cli as cli; print('numpy' in sys.modules); "
              f"code = cli.main({argv!r}); print(code, 'numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert run.stdout == f"False\n{EXIT_PASS} True\n"
    assert json.loads(out.read_text())["status"] == "pass"


def test_no_module_imports_dataclasses():
    # read off the source: whether the standard library loads dataclasses
    # on its own changes between Python versions
    sources = sorted((SRC / "mmda_lab").glob("*.py"))
    assert len(sources) == 12
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name


class TestRecords:
    def test_params_compare_and_hash_by_value(self):
        p = make_params(8, Fraction(1, 4), epsilon=Fraction(1, 2))
        q = InstanceParams(8, "1/4", "1/2")
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert p.step == 1      # a derived size does not enter equality
        assert p != make_params(8, Fraction(1, 8)) and p != (8, Fraction(1, 4), Fraction(1, 2))
        assert repr(q) == "InstanceParams(m=8, rho=Fraction(1, 4), epsilon=Fraction(1, 2))"

    def test_profiles_compare_and_hash_by_value(self):
        a, b = make_params(8, Fraction(1, 4)).profile, make_params(8, Fraction(1, 4)).profile
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != make_params(12, Fraction(1, 4)).profile

    def test_events_are_keys_and_members(self):
        e = ((0, 0), (1, 3))
        table = {ConditionEvent(e, True): "+", ConditionEvent(e, False): "-"}
        assert table[ConditionEvent(e, True)] == "+"
        assert len({ConditionEvent(e, True), ConditionEvent(e, True),
                    ConditionEvent(e, False)}) == 2
        assert ConditionEvent(e, False).label() == "-0.0>1.3"


def _frozen_records():
    """(record, a field) for each kind of record that cannot be changed."""
    p = make_params(8, Fraction(1, 4))
    gap = build_config_lp_gap(3)
    small = build_lower_bound(6, Fraction(1, 6))
    cert = counting_certificate(p)
    return [
        (p, "m"), (p.profile, "k"), (gap.santa, "target"),
        (build_config_solution(gap).entries[0], "weight"),
        (sa1_defeats(gap).witnesses[(1, 0)], "infeasible"),
        (single_path_solution(gap), "edges"),
        (bruteforce_best(gap, budget=10).quality, "alpha"),
        (cert, "theta"), (cert.variants[0], "threshold"),
        (small, "k"), (canonicalize(small, 2, 1), "bigs"),
        (scan_proof_function("f_packing", "1/1000", "1/100", 2).points[0], "x"),
        (ConditionEvent(((0, 0), (1, 0)), True), "positive"),
    ]


@pytest.mark.parametrize("record,field", _frozen_records(),
                         ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_frozen_fields_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before
