import json
import math
from fractions import Fraction

import pytest

from polyindex import InputError, Operator
from polyindex.documents import (operator_from_document, operator_to_document,
                                 polytope_from_document, polytope_to_document)
from polyindex.families import oblique_prism, pyramid_witness_operator
from helpers import vertex_set


def test_rational_round_trip_is_identity(hexagon):
    doc = polytope_to_document(hexagon)
    assert doc["scalar"] == "rational"
    p, w = polytope_from_document(doc)
    assert w is None
    assert vertex_set(p) == vertex_set(hexagon)
    # parse -> serialize -> parse fixed point
    assert polytope_to_document(p) == doc


def test_rational_entries_serialize_as_strings_or_ints(hexagon):
    doc = polytope_to_document(hexagon)
    flat = [x for row in doc["vertices"] for x in row]
    assert "1/2" in flat and 1 in flat
    assert not any(isinstance(x, float) for x in flat)


def test_float_round_trip():
    p = oblique_prism(3, 0.5)
    doc = polytope_to_document(p)
    assert doc["scalar"] == "float"
    q, _ = polytope_from_document(doc)
    assert q.vertices == p.vertices


def test_embedded_witness_round_trip(bipyramid):
    w = pyramid_witness_operator()
    doc = polytope_to_document(bipyramid, witness=w)
    p, w2 = polytope_from_document(doc)
    assert w2 is not None and w2.matrix == w.matrix


def test_operator_round_trip():
    op = Operator([[Fraction(1, 3), 0], [2, Fraction(-5, 7)]])
    doc = operator_to_document(op)
    assert operator_from_document(doc).matrix == op.matrix


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d.pop("dim"), "dim"),
    (lambda d: d.update(dim=0), "dim"),
    (lambda d: d.update(scalar="decimal"), "scalar"),
    (lambda d: d.update(vertices=[]), "vertices"),
    (lambda d: d["vertices"][0].pop(), "vertices[0]"),
    (lambda d: d["vertices"][2].__setitem__(0, 0.5), "vertices[2][0]"),
    (lambda d: d["vertices"][1].__setitem__(1, "3/0"), "vertices[1][1]"),
])
def test_malformed_polytope_documents_name_the_field(hexagon, mutate, field):
    doc = polytope_to_document(hexagon)
    mutate(doc)
    with pytest.raises(InputError) as exc:
        polytope_from_document(doc)
    assert field in str(exc.value)


def test_float_document_rejects_strings():
    doc = {"dim": 2, "scalar": "float", "vertices": [["1/2", 1.0], [-0.5, -1.0]]}
    with pytest.raises(InputError, match="vertices"):
        polytope_from_document(doc)


def test_rational_document_rejects_floats():
    doc = {"dim": 1, "scalar": "rational", "vertices": [[0.5], [-0.5]]}
    with pytest.raises(InputError, match="rational"):
        polytope_from_document(doc)


def test_rational_document_rejects_a_bool_among_ints():
    doc = {"dim": 2, "scalar": "rational", "vertices": [[1, 0], [0, True], [-1, 0], [0, -1]]}
    with pytest.raises(InputError, match=r"^polytope\.vertices\[1\]\[1\]: rational documents "
                                         r"take integers or 'p/q' strings, got True$"):
        polytope_from_document(doc)
    doc = {"dim": 2, "scalar": "rational", "matrix": [[1, 0], [False, 1]]}
    with pytest.raises(InputError, match=r"^operator\.matrix\[1\]\[0\]: .* got False$"):
        operator_from_document(doc)


def test_witness_dimension_checked(hexagon):
    doc = polytope_to_document(hexagon, witness=pyramid_witness_operator())
    with pytest.raises(InputError, match="witness"):
        polytope_from_document(doc)


def test_malformed_operator_documents():
    with pytest.raises(InputError, match="matrix"):
        operator_from_document({"dim": 2, "scalar": "rational", "matrix": [[1, 0]]})
    with pytest.raises(InputError, match="matrix\\[1\\]"):
        operator_from_document({"dim": 2, "scalar": "rational", "matrix": [[1, 0], [1]]})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 10 ** 400])
def test_non_finite_floats_name_the_field(bad):
    doc = {"dim": 2, "scalar": "float",
           "vertices": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, bad]]}
    with pytest.raises(InputError, match=r"polytope\.vertices\[3\]\[1\]: not a finite number"):
        polytope_from_document(doc)
    doc = {"dim": 2, "scalar": "float", "matrix": [[1.0, bad], [0.0, 1.0]]}
    with pytest.raises(InputError, match=r"operator\.matrix\[0\]\[1\]: not a finite number"):
        operator_from_document(doc)
    doc = {"dim": 2, "scalar": "float", "vertices": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
           "witness": {"dim": 2, "scalar": "float", "matrix": [[bad, 0.0], [0.0, 1.0]]}}
    with pytest.raises(InputError, match=r"^witness\.matrix\[0\]\[0\]: not a finite number"):
        polytope_from_document(doc)


@pytest.mark.parametrize("witness,field", [
    ({"dim": 0, "scalar": "rational", "matrix": []}, "witness.dim"),
    ({"dim": 2, "scalar": "complex", "matrix": [[1, 0], [0, 1]]}, "witness.scalar"),
    ({"dim": 2, "scalar": "rational", "matrix": [[1, 0]]}, "witness.matrix:"),
    ({"dim": 2, "scalar": "rational", "matrix": [[1, 0], [1]]}, "witness.matrix[1]:"),
    ({"dim": 2, "scalar": "rational", "matrix": [[1, 0], [0, "1/0"]]}, "witness.matrix[1][1]:"),
    ([[1, 0], [0, 1]], "witness: expected a JSON object"),
])
def test_embedded_witness_errors_name_the_witness(hexagon, witness, field):
    doc = polytope_to_document(hexagon)
    doc["witness"] = witness
    with pytest.raises(InputError) as exc:
        polytope_from_document(doc)
    assert str(exc.value).startswith(field)


@pytest.mark.parametrize("entry, want", [
    ("true", "polytope.vertices[2][1]: float documents take numbers, got True"),
    ("false", "polytope.vertices[2][1]: float documents take numbers, got False"),
    ("Infinity", "polytope.vertices[2][1]: not a finite number"),
    ("-Infinity", "polytope.vertices[2][1]: not a finite number"),
    ("NaN", "polytope.vertices[2][1]: not a finite number"),
    ("1e999", "polytope.vertices[2][1]: not a finite number"),
])
def test_float_document_row_with_a_bad_entry_names_it(entry, want):
    # json.loads reads Infinity and NaN as floats; a row of floats is passed
    # on as it is only when every one of them is finite.
    text = '{"dim": 2, "scalar": "float", "vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, %s], [0.0, -1.0]]}'
    with pytest.raises(InputError) as exc:
        polytope_from_document(json.loads(text % entry))
    assert str(exc.value) == want
    with pytest.raises(InputError) as exc:
        operator_from_document(json.loads('{"dim": 2, "scalar": "float", "matrix": '
                                          '[[1.0, 0.0], [-1.0, %s]]}' % entry))
    assert str(exc.value) == want.replace("polytope.vertices[2]", "operator.matrix[1]")


def test_float_document_row_with_an_int_reads_it_as_a_float():
    doc = json.loads('{"dim": 2, "scalar": "float", "vertices": [[1.0, 0], [0.0, 1.0], '
                     '[-1, 0.0], [0.0, -1.0]]}')
    p, _ = polytope_from_document(doc)
    assert p.vertices == ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
    assert all(type(x) is float for v in p.vertices for x in v)
