"""The package's import surface: what `import polyindex.cli` loads, the
public names, and the result records."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyindex
from polyindex import (Operator, SearchConfig, incidence, index_bracket, irregular_hexagon,
                       lower_bound, numerical_radius, radius_profile, validate)
from polyindex.polytope import evaluation_table


def test_cli_import_leaves_the_lp_solver_unloaded():
    src = str(Path(polyindex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", "import sys, polyindex.cli; "
                           "sys.exit('polyindex.linprog' in sys.modules)"], env=env, timeout=60)
    assert proc.returncode == 0


def test_every_public_name_resolves():
    for name in polyindex.__all__:
        assert getattr(polyindex, name) is not None, name
    with pytest.raises(AttributeError, match="has no attribute 'simplex'"):
        polyindex.simplex


def test_lp_names_are_the_solver_module_objects():
    from polyindex import LinearProgram, LPSolution, solve_lp
    import polyindex.linprog
    assert LinearProgram is polyindex.linprog.LinearProgram
    assert LPSolution is polyindex.linprog.LPSolution
    assert solve_lp is polyindex.linprog.solve_lp


def _hexagon_records():
    p = irregular_hexagon()
    t = Operator([[0, 1], [-1, 0]])
    _, cert = lower_bound(p)
    return {
        "VertexBound": cert.entries[0],
        "LowerBoundCertificate": cert,
        "SearchConfig": SearchConfig(budget=10, seed=3),
        "IndexBracket": index_bracket(p),
        "RadiusCertificate": numerical_radius(p, t),
        "ProfileRow": radius_profile(p, t)[0],
        "Incidence": incidence(p),
        "EvaluationTable": evaluation_table(p),
        "ValidationReport": validate(p),
    }


@pytest.mark.parametrize("name", list(_hexagon_records()))
def test_record_compares_by_value_and_is_read_only(name):
    record = _hexagon_records()[name]
    assert type(record).__name__ == name
    copy = type(record)(*record)
    assert copy == record and copy is not record
    field = record._fields[0]
    assert record._replace(**{field: "other"}) != record
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
