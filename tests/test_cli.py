import contextlib
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import polyindex
import polyindex.operators as operators_module
from polyindex import (Operator, bipyramid_square_prism, cli, facet_enumeration, incidence,
                       numerical_radius, oblique_prism, operator_norm, prism_witness_operator,
                       pyramid_witness_operator, radius_profile)
from polyindex.cli import main
from polyindex.documents import (operator_to_document, polytope_from_document,
                                 polytope_to_document, scalar_to_json)
from polyindex.families import irregular_hexagon
from polyindex.linalg import rank
from polyindex.polytope import evaluation_table
from polyindex.scalars import EXACT, scaled_integer_rows
from helpers import random_symmetric_polytope


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def hexagon_file(tmp_path):
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(polytope_to_document(irregular_hexagon())))
    return str(path)


def test_family_to_file_and_hull(capsys, tmp_path):
    out = tmp_path / "square.json"
    code, _, _ = run(capsys, "family", "regular_2n_gon", "--n", "2", "-o", str(out))
    assert code == 0
    report = run_json(capsys, "hull", "-i", str(out))
    assert report["command"] == "hull"
    assert report["results"]["facet_count"] == 4


def test_norm_command(capsys, tmp_path):
    doc = {"dim": 2, "scalar": "rational",
           "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}
    path = tmp_path / "sq.json"
    path.write_text(json.dumps(doc))
    report = run_json(capsys, "norm", "-i", str(path), "--point", "2,0")
    assert report["results"]["value"] == 2


def test_dual_command(capsys, hexagon_file):
    report = run_json(capsys, "dual", "-i", hexagon_file)
    assert ["2/3", "1/3"] in report["results"]["vertices"]


def test_bound_command_hexagon(capsys, hexagon_file):
    report = run_json(capsys, "bound", "-i", hexagon_file)
    res = report["results"]
    assert [e["value"] for e in res["vertex_bounds"]] == ["5/17", "4/7", "9/13"]
    assert res["lower"] == "5/17"
    assert res["upper"] == 1
    assert res["status"] == "gap"


def test_family_bound_pipe_equivalent(capsys, tmp_path):
    # family --with-witness writes a document whose embedded witness the
    # bound command picks up, as if piped.
    doc_path = tmp_path / "bp.json"
    code, _, _ = run(capsys, "family", "bipyramid_square_prism", "--with-witness",
                     "-o", str(doc_path))
    assert code == 0
    report = run_json(capsys, "bound", "-i", str(doc_path))
    assert report["results"]["lower"] == "1/2"
    assert report["results"]["upper"] == "1/2"
    assert report["results"]["status"] == "tight"


def test_radius_command(capsys, tmp_path):
    code, _, _ = run(capsys, "family", "bipyramid_square_prism", "--with-witness",
                     "-o", str(tmp_path / "bp.json"))
    assert code == 0
    report = run_json(capsys, "radius", "-i", str(tmp_path / "bp.json"))
    assert report["results"]["operator_norm"] == 1
    assert report["results"]["numerical_radius"] == "1/2"
    assert len(report["results"]["profile"]) == 10


@pytest.mark.parametrize("case", ["hexagon", "bipyramid", "oblique_prism"])
def test_radius_builds_one_profile(capsys, tmp_path, monkeypatch, case):
    if case == "hexagon":
        # Vertices 1 and 4 tie at 11/5; the certificate names vertex 1.
        p = irregular_hexagon()
        op = Operator([[Fraction(1, 2), -1], [2, Fraction(3, 4)]])
    elif case == "bipyramid":
        p, op = bipyramid_square_prism(), pyramid_witness_operator()
    else:
        p, op = oblique_prism(3, 0.5), prism_witness_operator(3, 0.5)
    (tmp_path / "ball.json").write_text(json.dumps(polytope_to_document(p)))
    (tmp_path / "op.json").write_text(json.dumps(operator_to_document(op)))
    # The report as built from one numerical_radius and one radius_profile call.
    norm, norm_vertex = operator_norm(p, op)
    cert = numerical_radius(p, op)
    want = cli._json(cli._report("radius", {"eps": None if p.ctx.exact else p.ctx.eps}, {
        "operator_norm": scalar_to_json(norm),
        "norm_vertex": norm_vertex,
        "numerical_radius": scalar_to_json(cert.value),
        "radius_vertex": cert.vertex_index,
        "radius_facet": cert.facet_index,
        "profile": [{"vertex": r.vertex_index, "value": scalar_to_json(r.value),
                     "facet": r.facet_index} for r in radius_profile(p, op)],
    })) + "\n"

    calls = []
    real = operators_module._orbit_pair_values

    def counting(*args):
        calls.append(args)
        return real(*args)

    # One evaluation of the operator gives the norm and the whole profile.
    monkeypatch.setattr(operators_module, "_orbit_pair_values", counting)
    code, out, err = run(capsys, "radius", "-i", str(tmp_path / "ball.json"),
                         "--operator", str(tmp_path / "op.json"))
    assert code == 0, err
    assert len(calls) == 1
    assert out == want
    if case == "hexagon":
        assert (cert.value, cert.vertex_index, cert.facet_index) == (Fraction(11, 5), 1, 2)


def test_witness_flag_overrides_embedded(capsys, tmp_path, hexagon_file):
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps({"dim": 2, "scalar": "rational",
                                   "matrix": [[1, 0], [0, 1]]}))
    report = run_json(capsys, "bound", "-i", hexagon_file, "--witness", str(op_path))
    assert report["results"]["upper"] == 1


def test_calls_share_no_parsed_state(capsys, tmp_path, hexagon_file):
    # main() reuses one parser; options of one call must not reach the next.
    op_path = tmp_path / "rotation.json"
    op_path.write_text(json.dumps({"dim": 2, "scalar": "rational",
                                   "matrix": [[0, -1], [1, 0]]}))
    report = run_json(capsys, "bound", "-i", hexagon_file, "--witness", str(op_path),
                      "--policy", "subset")
    assert report["results"]["upper"] == "7/12"
    report = run_json(capsys, "bound", "-i", hexagon_file)
    assert report["results"]["upper"] == 1
    assert report["config"]["policy"] == "all"


def test_policy_subset(capsys, hexagon_file):
    # In the plane every vertex has exactly two incident edges, so the
    # first-d subset equals the full set and the bounds agree.
    full = run_json(capsys, "bound", "-i", hexagon_file)
    sub = run_json(capsys, "bound", "-i", hexagon_file, "--policy", "subset")
    assert full["results"]["lower"] == sub["results"]["lower"]
    assert sub["config"]["policy"] == "subset"


def test_policy_subset_skips_dependent_facets(capsys, tmp_path):
    # A linear image of the 4-cube: at vertex 0 the first four incident
    # facets have dependent normals, so the subset takes facet 8 instead of 3.
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({"dim": 4, "scalar": "rational", "vertices": [
        [-1, 0, -1, 2], [1, 0, 1, -2], [0, -3, 2, 2], [0, 3, -2, -2],
        [1, 1, 1, 1], [-1, -1, -1, -1], [2, 0, 0, 1], [-2, 0, 0, -1]]}))
    full = run_json(capsys, "bound", "-i", str(path))
    assert (full["results"]["lower"], full["results"]["status"]) == (1, "tight")
    sub = run_json(capsys, "bound", "-i", str(path), "--policy", "subset")
    assert [e["functionals"] for e in sub["results"]["vertex_bounds"]][0] == [0, 1, 2, 8]
    assert sub["results"]["lower"] == "1/5"


def test_policy_subset_spans_on_random_balls(capsys, tmp_path):
    rng = random.Random(5)
    path = tmp_path / "ball.json"
    dependent = 0
    for trial in range(24):
        p = random_symmetric_polytope(rng, 3 + trial % 2, n_pairs=rng.randint(4, 6))
        path.write_text(json.dumps(polytope_to_document(p)))
        report = run_json(capsys, "bound", "-i", str(path), "--policy", "subset")
        facets, v2f = facet_enumeration(p), incidence(p).vertex_to_facets
        for e in report["results"]["vertex_bounds"]:
            chosen, incident = e["functionals"], v2f[e["vertex"]]
            # p.dim incident facets, in incidence order, with independent normals.
            assert len(chosen) == p.dim and rank([facets[k].coeffs for k in chosen], p.ctx) == p.dim
            assert chosen == [k for k in incident if k in chosen]
            first = list(incident[:p.dim])
            if rank([facets[k].coeffs for k in first], p.ctx) == p.dim:
                assert chosen == first
            else:
                dependent += 1
    assert dependent > 0


def test_search_seed_determinism(capsys, hexagon_file):
    a = run_json(capsys, "bound", "-i", hexagon_file, "--search", "150", "--seed", "7")
    b = run_json(capsys, "bound", "-i", hexagon_file, "--search", "150", "--seed", "7")
    assert a == b
    assert Fraction(a["results"]["upper"]) < 1


def test_family_prism_with_height(capsys):
    doc = run_json(capsys, "family", "oblique_prism", "--n", "3", "--l", "1/2",
                   "--height", "2")
    assert doc["dim"] == 3
    zs = {round(v[2], 9) for v in doc["vertices"]}
    assert zs == {2.0, -2.0}


def test_family_height_keeps_witness_sharp(capsys, tmp_path):
    path = tmp_path / "p.json"
    code, _, _ = run(capsys, "family", "oblique_prism", "--n", "3", "--l", "0",
                     "--height", "1/2", "--with-witness", "-o", str(path))
    assert code == 0
    report = run_json(capsys, "bound", "-i", str(path))
    assert abs(report["results"]["lower"] - 0.5) < 1e-7
    assert abs(report["results"]["upper"] - 0.5) < 1e-7
    # A rational family keeps a rational witness, and so an exact bracket.
    code, _, _ = run(capsys, "family", "bipyramid_square_prism", "--height", "3",
                     "--with-witness", "-o", str(path))
    assert code == 0
    results = run_json(capsys, "bound", "-i", str(path))["results"]
    assert results["witness"]["scalar"] == "rational"
    assert (results["lower"], results["upper"], results["status"]) == ("1/2", "1/2", "tight")


def test_family_linf_sum(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "family", "regular_2n_gon", "--n", "2", "-o", str(a))
    run(capsys, "family", "regular_2n_gon", "--n", "2", "-o", str(b))
    doc = run_json(capsys, "family", "linf_sum", "--a", str(a), "--b", str(b))
    assert doc["dim"] == 4
    assert len(doc["vertices"]) == 16


@pytest.mark.parametrize("argv,flag", [
    (("regular_2n_gon", "--n", "2", "--l", "1/2"), "--l"),
    (("prism_with_pyramids", "--n", "3", "--l", "1/2"), "--l"),
    (("irregular_hexagon", "--n", "7"), "--n"),
    (("irregular_hexagon", "--l", "3"), "--l"),
    (("irregular_hexagon", "--with-witness"), "--with-witness"),
    (("bipyramid_square_prism", "--a", "{square}"), "--a"),
    (("oblique_prism", "--n", "3", "--b", "{square}"), "--b"),
    (("linf_sum", "--with-witness", "--a", "{square}", "--b", "{square}"), "--with-witness"),
    (("linf_sum", "--n", "3", "--a", "{square}", "--b", "{square}"), "--n"),
])
def test_family_rejects_a_flag_its_kind_does_not_take(capsys, square_file, argv, flag):
    argv = [a.format(square=square_file) for a in argv]
    code, out, err = run(capsys, "family", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: family {argv[0]}: takes no {flag}\n"


@pytest.mark.parametrize("argv, message", [
    (("regular_2n_gon",), "family regular_2n_gon: needs --n"),
    (("oblique_prism", "--l", "1/2"), "family oblique_prism: needs --n"),
    (("linf_sum", "--a", "{square}"), "family linf_sum: needs --b"),
    (("linf_sum", "--b", "{square}"), "family linf_sum: needs --a"),
    (("regular_2n_gon", "--n", "3", "--height", "2"),
     "--height: only meaningful for prism families"),
    (("dodecahedron",), "unknown family 'dodecahedron'; choose from ['bipyramid_square_prism', "
                        "'irregular_hexagon', 'linf_sum', 'oblique_prism', "
                        "'prism_with_pyramids', 'regular_2n_gon']"),
    (("linf_sum", "--a", "{square}", "--b", "{missing}"), "--b: cannot read {missing}: "),
    (("linf_sum", "--a", "{flat}", "--b", "{square}"), "--a: polytope.dim: expected a "
                                                       "positive integer, got 0"),
])
def test_family_errors_name_the_flag(capsys, tmp_path, square_file, argv, message):
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"dim": 0, "scalar": "float", "vertices": [[]]}))
    names = {"square": square_file, "missing": str(tmp_path / "missing.json"), "flat": str(flat)}
    code, out, err = run(capsys, "family", *[a.format(**names) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message.format(**names)}")


def test_bound_policies_report_the_same_violations(capsys, tmp_path):
    # The subset policy reads the vertex orbits only after validation.
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({"dim": 2, "scalar": "rational",
                                "vertices": [[1, 0], [0, 1], [-1, 0], ["1/2", "1/3"]]}))
    errors = {policy: run(capsys, "bound", "--policy", policy, "-i", str(path))
              for policy in ("all", "subset")}
    assert errors["all"] == errors["subset"] == (2, "", (
        "error: not symmetric: vertex 1 (0, 1) has no antipode; not symmetric: vertex 3 "
        "(1/2, 1/3) has no antipode; vertex 3 (1/2, 1/3) is not extreme (lies in the hull "
        "of the others)\n"))


def test_text_format(capsys, hexagon_file):
    code, out, _ = run(capsys, "bound", "-i", hexagon_file, "--format", "text")
    assert code == 0
    assert "lower: 5/17" in out
    assert "status: gap" in out


def test_exit_code_2_on_malformed_document(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "scalar": "rational",
                                "vertices": [[1, 0.5], [-1, -0.5]]}))
    code, _, err = run(capsys, "hull", "-i", str(path))
    assert code == 2
    assert "vertices[0][1]" in err
    path.write_text('{"dim": 2, "scalar": "float", '
                    '"vertices": [[1e999, 0], [-1e999, 0], [0, 1], [0, -1]]}')
    code, _, err = run(capsys, "bound", "-i", str(path))
    assert code == 2
    assert "polytope.vertices[0][0]: not a finite number" in err


def test_exit_code_1_names_the_vertex_of_a_failing_double_description(capsys, tmp_path,
                                                                       monkeypatch):
    # A vertex bound away from simple vertices is read off one vertex
    # enumeration; a failure in it names the vertex. Vertex 0 of the
    # bipyramid lies on 4 facets in d = 3.
    import polyindex.bracket
    from polyindex import ComputationError

    def failing(rows, k, ctx):
        raise ComputationError("double description: a ray overflowed to a non-finite float")

    path = tmp_path / "bipyramid.json"
    path.write_text(json.dumps(polytope_to_document(bipyramid_square_prism())))
    monkeypatch.setattr(polyindex.bracket, "_double_description", failing)
    code, _, err = run(capsys, "bound", "-i", str(path))
    assert code == 1
    assert err.rstrip().endswith(
        "computation failed: vertex 0: double description: a ray overflowed to a non-finite float")


@pytest.mark.parametrize("symmetric", [False, True], ids=["points", "symmetric_closure"])
def test_exit_code_1_on_double_description_overflow(capsys, tmp_path, symmetric):
    # Finite coordinates whose products overflow: the failure is the
    # computation's, not the input's.
    points = [[1.330121430422472, -1.6351347981238336, -1e-300],
              [1e-323, 0.6154218417116057, 0.5297927544658769],
              [1.7e308, -1.0321682864308666, -1e300],
              [1.7e308, -1.8289300478766324, -9.999999999999996e299],
              [1e300, -1e-310, -1e-310],
              [1e300, -5e-10, -5e-10]]
    if symmetric:
        points += [[-x for x in v] for v in points]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"dim": 3, "scalar": "float", "vertices": points}))
    code, out, err = run(capsys, "hull", "-i", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("computation failed: double description: ")
    assert "not a finite number" not in err


@pytest.mark.parametrize("command,flag", [("bound", "--witness"), ("radius", "--operator")])
def test_exit_code_1_on_operator_overflow(capsys, tmp_path, command, flag):
    # A finite operator whose images overflow: its norm would be inf, and the
    # unit witness the zero matrix, a false upper bound of 0. bound names the
    # witness that overflowed.
    ball, op = tmp_path / "square.json", tmp_path / "w.json"
    ball.write_text(json.dumps({"dim": 2, "scalar": "float",
                                "vertices": [[2, 0], [-2, 0], [0, 2], [0, -2]]}))
    op.write_text(json.dumps({"dim": 2, "scalar": "float", "matrix": [[1e308, 0], [0, 1e308]]}))
    code, out, err = run(capsys, command, "-i", str(ball), flag, str(op))
    assert (code, out) == (1, "")
    where = "witness 0: " if command == "bound" else ""
    assert err == (f"computation failed: {where}operator norm: |f(T v)| is not finite "
                   "at vertex 0\n")


@pytest.mark.parametrize("command,flag,where", [("bound", "--witness", "witness 0: "),
                                                ("radius", "--operator", "")])
def test_exit_code_2_on_operator_entry_beyond_float_range(capsys, tmp_path, command, flag,
                                                          where):
    # On a float ball the operator is evaluated in floats, where 10^400 has
    # no value; the error names the operator and the entry, not its digits.
    ball, op = tmp_path / "6-gon.json", tmp_path / "w.json"
    assert run(capsys, "family", "regular_2n_gon", "--n", "3", "-o", str(ball))[0] == 0
    op.write_text(json.dumps({"dim": 2, "scalar": "rational",
                              "matrix": [[1, 0], [0, "1e400"]]}))
    code, out, err = run(capsys, command, "-i", str(ball), flag, str(op))
    assert (code, out) == (2, "")
    assert err == f"error: {where}operator: matrix[1][1] is beyond the float range\n"


def test_exit_code_2_names_the_zero_witness(capsys, tmp_path, hexagon_file):
    identity, zero = tmp_path / "id.json", tmp_path / "zero.json"
    identity.write_text(json.dumps(operator_to_document(Operator.identity(2))))
    zero.write_text(json.dumps(operator_to_document(Operator.zero(2))))
    code, out, err = run(capsys, "bound", "-i", hexagon_file, "--witness", str(identity),
                         "--witness", str(zero))
    assert (code, out, err) == (2, "", "error: witness 1: operator has norm 0\n")


def test_huge_float_witness_on_rational_ball_exits_0(capsys, tmp_path, hexagon_file):
    # In floats its images overflow; exactly, it is 1e308 times a witness of
    # v / ||.|| = 4/5, and the unit witness is exact.
    op = tmp_path / "w.json"
    op.write_text(json.dumps({"dim": 2, "scalar": "float",
                              "matrix": [[1e308, 1e308], [1e308, -1e308]]}))
    results = run_json(capsys, "bound", "-i", hexagon_file, "--witness", str(op))["results"]
    assert (results["lower"], results["upper"], results["status"]) == ("5/17", "4/5", "gap")
    assert results["witness"] == {"dim": 2, "scalar": "rational",
                                  "matrix": [["2/5", "2/5"], ["2/5", "-2/5"]]}


def test_search_skips_a_witness_start_beyond_the_float_range(capsys, tmp_path, hexagon_file):
    # float(10^400) overflows, so the witness gives the search no start; the
    # bound still evaluates it exactly (upper 1, as without the search), and
    # the search runs from the same random starts as with no witness.
    op = tmp_path / "w.json"
    op.write_text(json.dumps({"dim": 2, "scalar": "rational",
                              "matrix": [["1e400", "0"], ["0", "1"]]}))
    plain = run_json(capsys, "bound", "-i", hexagon_file, "--witness", str(op))["results"]
    assert Fraction(plain["upper"]) == 1
    searched = run_json(capsys, "bound", "--search", "10", "-i", hexagon_file,
                        "--witness", str(op))["results"]
    alone = run_json(capsys, "bound", "--search", "10", "-i", hexagon_file)["results"]
    assert searched["upper"] == alone["upper"]
    assert Fraction(searched["upper"]) <= Fraction(plain["upper"])


@pytest.mark.parametrize("flag,value", [("--l", "1e999"), ("--height", "1e999"),
                                        ("--height", "1e-999")])
def test_family_parameter_beyond_float_range_exits_2(capsys, flag, value):
    code, out, err = run(capsys, "family", "oblique_prism", "--n", "3", flag, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag}: "), err


def test_exit_code_2_on_missing_file(capsys):
    code, _, err = run(capsys, "hull", "-i", "/nonexistent/nowhere.json")
    assert code == 2
    assert "cannot read" in err


def test_exit_code_2_on_invalid_polytope(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "scalar": "rational",
                                "vertices": [[1, 0], [-1, 0], [2, 0], [-2, 0]]}))
    code, _, err = run(capsys, "hull", "-i", str(path))
    assert code == 2
    assert "full-dimensional" in err


def test_family_unknown_kind(capsys):
    code, _, err = run(capsys, "family", "dodecahedron")
    assert code == 2
    assert "unknown family" in err


def test_eps_env_var(capsys, hexagon_file, monkeypatch):
    monkeypatch.setenv("POLYINDEX_EPS", "1e-6")
    report = run_json(capsys, "bound", "-i", hexagon_file)
    assert report["results"]["lower"] == "5/17"  # rational path unaffected
    assert report["config"]["eps"] is None


@pytest.fixture
def hexagon_float_file(capsys, tmp_path):
    path = tmp_path / "6-gon.json"
    assert run(capsys, "family", "regular_2n_gon", "--n", "3", "-o", str(path))[0] == 0
    return str(path)


@pytest.mark.parametrize("env, flag, want", [(None, None, 1e-9), ("1e-3", None, 1e-3),
                                             ("1e-3", "1e-4", 1e-4)],
                         ids=["default", "env", "flag"])
def test_config_reports_the_float_tolerance_used(capsys, monkeypatch, hexagon_float_file,
                                                  hexagon_file, env, flag, want):
    if env is not None:
        monkeypatch.setenv("POLYINDEX_EPS", env)
    else:
        monkeypatch.delenv("POLYINDEX_EPS", raising=False)
    extra = [] if flag is None else ["--eps", flag]
    for command in ("hull", "dual", "bound"):
        report = run_json(capsys, command, "-i", hexagon_float_file, *extra)
        assert report["config"]["eps"] == want, command
        # A rational ball compares exactly, whatever the tolerance setting.
        assert run_json(capsys, command, "-i", hexagon_file, *extra)["config"]["eps"] is None


@pytest.mark.parametrize("point", ["nan,0", "1e999,0", "0,-inf", "x,0"])
def test_norm_rejects_a_point_that_is_not_a_finite_float(capsys, hexagon_float_file, point):
    code, out, err = run(capsys, "norm", "-i", hexagon_float_file, "--point", point)
    assert (code, out) == (2, "")
    assert err.startswith("error: point: "), err


def test_norm_takes_a_rational_point_on_a_float_ball(capsys, hexagon_float_file):
    # The point is parsed as rationals, then rounded to the ball's floats.
    half = run_json(capsys, "norm", "-i", hexagon_float_file, "--point", "1/2,0")
    assert half == run_json(capsys, "norm", "-i", hexagon_float_file, "--point", "0.5,0")
    assert half["results"]["point"] == [0.5, 0.0]


_LEAVES = (st.none() | st.booleans() | st.integers() | st.text()
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]))


@settings(max_examples=200, deadline=None)
@given(doc=st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20))
@example(doc=[True, 1])
@example(doc=[1, "1/2"])
@example(doc={"vertices": (1, "1/2", (False, None, math.inf, -0.0))})
@example(doc=[-0.0, 5e-324, 1e308, -1e308, 0.1])
@example(doc={"minimizer": [0.5, math.nan, -0.25]})
@example(doc=[[1.0, math.inf], [-math.inf, 2.0], [0.5, 1]])
@example(doc=[1.0, True, 0.0])
def test_json_writes_what_json_dumps_writes(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"dim": 2, "scalar": "float",
                                "vertices": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]}))
    return str(path)


def test_norm_overflow_exits_1(capsys, square_file):
    # A finite point whose gauge overflows: |1e308 + 1e308| is inf.
    code, out, err = run(capsys, "norm", "-i", square_file, "--point", "1e308,1e308")
    assert (code, out) == (1, "")
    assert err == "computation failed: norm: |f(x)| is not finite\n"


@pytest.mark.parametrize("eps", ["0", "nan", "inf", "-1e-9"])
def test_bad_eps_exits_2(capsys, square_file, eps):
    # 0 would select the exact backend for a float document, and NaN or
    # infinity would fail every comparison.
    code, out, err = run(capsys, "hull", "-i", square_file, f"--eps={eps}")
    assert (code, out) == (2, "")
    assert err.startswith("error: --eps: tolerance must be finite and positive")


@pytest.mark.parametrize("eps", ["0", "nan", "inf"])
def test_bad_eps_env_var_exits_2(capsys, square_file, monkeypatch, eps):
    monkeypatch.setenv("POLYINDEX_EPS", eps)
    code, out, err = run(capsys, "bound", "-i", square_file)
    assert (code, out) == (2, "")
    assert err.startswith("error: POLYINDEX_EPS: tolerance must be finite and positive")


def test_negative_search_budget_exits_2(capsys, hexagon_file):
    code, out, err = run(capsys, "bound", "-i", hexagon_file, "--search", "-5")
    assert (code, out) == (2, "")
    assert "--search" in err


def test_verify_passes(capsys):
    report = run_json(capsys, "verify")
    assert report["results"]["passed"] is True
    checks = report["results"]["checks"]
    assert len(checks) >= 19
    assert all(c["pass"] for c in checks)


def test_verify_text_table(capsys):
    code, out, _ = run(capsys, "verify", "--format", "text")
    assert code == 0
    assert "checks passed" in out


@pytest.mark.parametrize("argv", [
    ("bound", "-i", "{hexagon}"),
    ("hull", "-i", "{hexagon}"),
    ("family", "bipyramid_square_prism", "--with-witness"),
], ids=["bound", "hull", "family"])
def test_json_output_leaves_no_cyclic_garbage(capsys, hexagon_file, argv):
    argv = [a.format(hexagon=hexagon_file) for a in argv]
    run(capsys, *argv)  # builds the cached parser
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        garbage = gc.collect()
    finally:
        gc.enable()
    out = capsys.readouterr().out
    assert code == 0
    assert garbage == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_renderer_matches_indented_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_verify_has_no_eps_option():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--eps", "1e-3"])
    assert exc.value.code == 2


def test_family_has_no_eps_option():
    # No family builder reads a tolerance.
    with pytest.raises(SystemExit) as exc:
        main(["family", "regular_2n_gon", "--n", "3", "--eps", "1e-3"])
    assert exc.value.code == 2


def test_bound_on_tiny_float_hexagon(capsys, tmp_path):
    # Facet coefficients near 1e8, far beyond the absolute eps.
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "dim": 2, "scalar": "float",
        "vertices": [[float(x) * 1e-8 for x in v] for v in irregular_hexagon().vertices]}))
    report = run_json(capsys, "bound", "-i", str(path))
    assert abs(report["results"]["lower"] - 5 / 17) <= 1e-12 * (5 / 17)


def test_closed_pipe_exits_1_without_traceback(tmp_path):
    # `polyindex radius ... | head`: the reader is gone before the report is
    # written. The read end is closed first, so every write fails.
    doc = tmp_path / "prism.json"
    doc.write_text(json.dumps(polytope_to_document(
        oblique_prism(5, 0.5), witness=prism_witness_operator(5, 0.5))))
    src = str(Path(polyindex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "polyindex.cli", "radius", "-i", str(doc)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def _main_on(text, *argv):
    """stdout of a successful ``polyindex *argv -i -`` reading ``text``."""
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        assert main([*argv, "-i", "-"]) == 0
    return out.getvalue()


@st.composite
def rational_documents(draw):
    """A rational ball document: the extreme points of random integer
    points and their antipodes, each coordinate scaled by a nonzero
    rational, so entries are negative or not, integral or not. Entries are
    "p/q" strings, unreduced ones too; an integral entry may be an int."""
    d = draw(st.integers(2, 4))
    ball = random_symmetric_polytope(random.Random(draw(st.integers(0, 2 ** 32))), d,
                                     draw(st.integers(d, d + 3)))
    scales = draw(st.lists(st.fractions(-7, 7, max_denominator=9).filter(bool),
                           min_size=d, max_size=d))
    k = draw(st.integers(1, 3))

    def entry(x):
        if x.denominator == 1 and draw(st.booleans()):
            return int(x)
        return f"{x.numerator * k}/{x.denominator * k}"

    return {"dim": d, "scalar": "rational",
            "vertices": [[entry(x * s) for x, s in zip(v, scales)] for v in ball.vertices]}


@settings(max_examples=40, deadline=None)
@given(rational_documents())
def test_rational_reports_match_their_fractions(doc):
    p, _ = polytope_from_document(doc)
    assert p.vertices == tuple(tuple(map(EXACT.coerce, row)) for row in doc["vertices"])
    facets = facet_enumeration(p)
    for f in facets:
        *x, t = f.ray
        assert t > 0 and math.gcd(*f.ray) == 1
        assert f.coeffs == tuple(Fraction(c, t) for c in x)
    table = evaluation_table(p)
    assert (table.facets, table.facet_scale) == scaled_integer_rows([f.coeffs for f in facets])
    want = [[scalar_to_json(c) for c in f.coeffs] for f in facets]
    text = json.dumps(doc)
    for command, key in (("hull", "facets"), ("dual", "vertices")):
        got = json.loads(_main_on(text, command))["results"][key]
        assert got == want and [list(map(type, row)) for row in got] == \
            [list(map(type, row)) for row in want]
        lines = _main_on(text, command, "--format", "text").splitlines()
        at = lines.index(f"  {key}:") + 1
        assert lines[at:at + len(want)] == [f"    - [{', '.join(map(str, row))}]" for row in want]
