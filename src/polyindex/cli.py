"""Command-line interface.

Subcommands operate on JSON polytope/operator documents (see documents.py)
read from files or stdin ("-"), and emit a JSON report (default) or an
aligned text rendering. Exit codes: 0 success, 1 computational failure,
2 input error.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter

from . import __version__
from .bracket import SearchConfig, index_bracket, lower_bound, upper_bound
from .documents import (operator_from_document, operator_to_document,
                        polytope_from_document, polytope_to_document, scalar_to_json)
from .errors import ComputationError, InputError, PolyindexError
from .families import (FAMILIES, HEXAGON_DUAL_VERTEX, HEXAGON_VERTEX_BOUNDS,
                       irregular_hexagon, scale_coordinate, scale_witness)
from .linalg import rank
from .operators import Operator, norm_and_profile, operator_norm
from .polytope import evaluation_table, facet_enumeration, gauge, incidence
from .scalars import check_tolerance, finite_floats, parse_rational

def _json_file(path: str):
    """The JSON value in the file at ``path``, or on stdin for "-"."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _read_json(path: str, what: str):
    """:func:`_json_file`, its errors named ``what``."""
    with _named(what):
        return _json_file(path)


def _render_text(value, indent=0, out=None):
    """Text-format lines of a dict or list; nested ones go indented below
    their key or ``-``."""
    pad = "  " * indent
    lines = out if out is not None else []
    items = ([(f"{k}:", v) for k, v in value.items()] if isinstance(value, dict)
             else [("-", v) for v in value])
    for label, v in items:
        if (isinstance(v, dict) and v
                or isinstance(v, list) and any(isinstance(x, (dict, list)) for x in v)):
            lines.append(f"{pad}{label}")
            _render_text(v, indent + 1, lines)
        else:
            lines.append(f"{pad}{label} {_flat(v)}")
    return lines


def _flat(v):
    return "[" + ", ".join(map(str, v)) + "]" if isinstance(v, list) else str(v)


_SCALAR_JSON = {int: int.__repr__, str: encode_basestring_ascii}  # by exact type: no bool


def _json(value, pad="\n") -> str:
    """``json.dumps(value, indent=2)`` for a document with string keys.

    ``json.dumps`` with ``indent`` runs the pure-Python encoder, which leaves
    a reference cycle per call; here it only sees bools, None and the
    floats that are not finite. An int, a str or a finite float is written
    as ``json.dumps`` writes it: ``int.__repr__``, the ASCII string encoder
    and ``float.__repr__``. A list whose items are all ints and strs, each
    looked up by its exact type, is written in one join; so is a list of
    finite floats (:func:`~polyindex.scalars.finite_floats`), tried only
    where that fails.
    """
    kind = type(value)
    if kind in _SCALAR_JSON:
        return _SCALAR_JSON[kind](value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}"
                 for k, v in value.items()]
        return "{" + ",".join(items) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        try:
            items = [_SCALAR_JSON[type(v)](v) for v in value]
        except KeyError:  # an item that is not an int or a str
            if finite_floats(value):
                items = list(map(float.__repr__, value))
            else:
                items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value)


def _emit(report, fmt: str):
    print("\n".join(_render_text(report)) if fmt == "text" else _json(report))


def _report(command: str, config: dict, results: dict) -> dict:
    return {"command": command, "config": config, "results": results}


def _vector_json(vec):
    return [scalar_to_json(x) for x in vec]


def _facet_json(f):
    """f's coefficients as :func:`_vector_json` writes them. A rational
    facet's come from its ray (x, t), each x_i / t reduced with one gcd."""
    if f.ray is None:
        return _vector_json(f.coeffs)
    *x, t = f.ray
    return [c // g if g == t else f"{c // g}/{t // g}" for c in x for g in (math.gcd(c, t),)]


@contextlib.contextmanager
def _named(what: str):
    """Raise an InputError, or a float overflow, inside again as an
    InputError with ``what`` in front of its message."""
    try:
        yield
    except (InputError, OverflowError) as exc:
        why = exc if isinstance(exc, InputError) else "beyond the float range"
        raise InputError(f"{what}: {why}") from exc


def _load_polytope(args):
    return polytope_from_document(_read_json(args.input, "input"), eps=args.eps)


def _config(p, **extra):
    """The ball's float tolerance (None on a rational ball, whose eps is 0),
    then ``extra``."""
    return {"eps": p.ctx.eps or None, **extra}


def cmd_hull(args) -> int:
    p, _ = _load_polytope(args)
    facets = facet_enumeration(p)
    inc = incidence(p)
    results = {
        "dim": p.dim,
        "facet_count": len(facets),
        "facets": [_facet_json(f) for f in facets],
        "vertex_to_facets": [list(t) for t in inc.vertex_to_facets],
        "facet_to_vertices": [list(t) for t in inc.facet_to_vertices],
    }
    _emit(_report("hull", _config(p), results), args.format)
    return 0


def cmd_dual(args) -> int:
    p, _ = _load_polytope(args)
    facets = facet_enumeration(p)
    results = {"dim": p.dim, "vertices": [_facet_json(f) for f in facets]}
    _emit(_report("dual", _config(p), results), args.format)
    return 0


def cmd_norm(args) -> int:
    p, _ = _load_polytope(args)
    point = _parse_point(args.point, p)
    value = gauge(p, point)
    if not p.ctx.finite([value]):
        raise ComputationError("norm: |f(x)| is not finite")
    results = {"point": _vector_json(point), "value": scalar_to_json(value)}
    _emit(_report("norm", _config(p), results), args.format)
    return 0


def _parse_point(text: str, p) -> tuple:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != p.dim:
        raise InputError(f"point: expected {p.dim} comma-separated coordinates, got {len(parts)}")
    with _named("point"):
        coords = [parse_rational(t) for t in parts]
        # float() overflows on a literal beyond the float range; _named says so.
        return tuple(coords if p.ctx.exact else map(float, coords))


def cmd_radius(args) -> int:
    p, embedded = _load_polytope(args)
    if args.operator:
        op = operator_from_document(_read_json(args.operator, "operator"))
    elif embedded is not None:
        op = embedded
    else:
        raise InputError("radius: needs --operator FILE or a polytope document with a witness")
    norm, norm_vertex, profile = norm_and_profile(p, op)
    # The first maximal row, which is the certificate numerical_radius returns.
    cert = max(profile, key=attrgetter("value"))
    results = {
        "operator_norm": scalar_to_json(norm),
        "norm_vertex": norm_vertex,
        "numerical_radius": scalar_to_json(cert.value),
        "radius_vertex": cert.vertex_index,
        "radius_facet": cert.facet_index,
        "profile": [{"vertex": r.vertex_index, "value": scalar_to_json(r.value),
                     "facet": r.facet_index} for r in profile],
    }
    _emit(_report("radius", _config(p), results), args.format)
    return 0


def _spanning_facets(p, i) -> tuple:
    """The first facets incident to vertex i, in order, whose normals raise
    the rank, up to ``p.dim`` of them. The incident normals at a vertex span
    the space, so the normals chosen are a basis. The ranks are taken on
    the evaluation table's facet rows, positive multiples of the normals."""
    rows = evaluation_table(p).facets
    chosen = []
    for k in incidence(p).vertex_to_facets[i]:
        if rank([rows[r] for r in chosen + [k]], p.ctx) > len(chosen):
            chosen.append(k)
            if len(chosen) == p.dim:
                break
    return tuple(chosen)


def cmd_bound(args) -> int:
    p, embedded = _load_polytope(args)
    witnesses = [operator_from_document(_read_json(path, "witness"))
                 for path in args.witness or []]
    if not witnesses and embedded is not None:
        witnesses = [embedded]
    subsets = None
    if args.policy == "subset":
        facet_enumeration(p)  # validates the ball: its orbits are read next
        subsets = {i: _spanning_facets(p, i) for i in p.orbit_representatives()}
    if args.search < 0:
        raise InputError(f"--search: budget must be nonnegative, got {args.search}")
    search = SearchConfig(budget=args.search, seed=args.seed) if args.search else None
    bracket = index_bracket(p, witnesses=witnesses, search=search, subsets=subsets)
    results = {
        "vertex_bounds": [{
            "vertex": e.vertex_index,
            "antipode": e.antipode_index,
            "value": scalar_to_json(e.value),
            "functionals": list(e.functional_indices),
            "sphere_facet": e.sphere_facet_index,
            "minimizer": _vector_json(e.minimizer),
        } for e in bracket.lower_certificate.entries],
        "lower": scalar_to_json(bracket.lower),
        "upper": scalar_to_json(bracket.upper),
        "status": bracket.status,
        "witness": operator_to_document(bracket.witness),
        "radius_certificate": {
            "value": scalar_to_json(bracket.radius_certificate.value),
            "vertex": bracket.radius_certificate.vertex_index,
            "facet": bracket.radius_certificate.facet_index,
        },
    }
    config = _config(p, policy=args.policy, search_budget=args.search, seed=args.seed)
    _emit(_report("bound", config, results), args.format)
    return 0


def _summand_flag(path: str):
    """(ball, witness, v(W)/||W||) of the polytope document at ``path``, the
    last two None when it carries no witness W. The ratio is
    :func:`~polyindex.bracket.upper_bound` of the ball with W as its one
    witness: v(W)/||W|| is at most 1, so the identity there never lowers it."""
    p, w = polytope_from_document(_json_file(path))
    return p, w, None if w is None else upper_bound(p, [w])[0]


def _sum_witness(summands):
    """The witness of the ℓ∞ sum of ``summands``, two :func:`_summand_flag`
    triples: the summand witness W with the smaller v(W)/||W||, the first on
    a tie, padded with zeros in the other summand's block, in the
    coordinates of :func:`~polyindex.families.linf_sum`. Its value on the sum
    is W's own, the least of the two. None when neither carries one."""
    carried = [(ratio, k, w) for k, (_, w, ratio) in enumerate(summands) if w is not None]
    if not carried:
        return None
    _, k, w = min(carried, key=itemgetter(0))  # the first of equal ratios
    before, after = (summands[0][0].dim, 0) if k else (0, summands[1][0].dim)
    zero = [0] * (before + w.dim + after)
    rows = [[0] * before + list(row) + [0] * after for row in w.matrix]
    return Operator([zero] * before + rows + [zero] * after, backend=w.ctx.backend)


# Each family parameter's flag: how its text is read (--n as argparse
# parsed it), and whether a family that takes it needs it.
_PARAM_FLAGS = {
    "n": (int, True),
    "l": (lambda text: float(parse_rational(text)), False),
    "a": (_summand_flag, True),
    "b": (_summand_flag, True),
}


def cmd_family(args) -> int:
    kind = args.kind
    if kind not in FAMILIES:
        raise InputError(f"unknown family {kind!r}; choose from {sorted(FAMILIES)}")
    family = FAMILIES[kind]
    takes = family.params + (("with_witness",) if family.witness else ())
    for name in (*_PARAM_FLAGS, "with_witness"):
        if getattr(args, name) not in (None, False) and name not in takes:
            raise InputError(f"family {kind}: takes no --{name.replace('_', '-')}")
    given = {name: getattr(args, name) for name in family.params}
    for name, text in given.items():
        if text is None and _PARAM_FLAGS[name][1]:
            raise InputError(f"family {kind}: needs --{name}")
    params = {}
    for name, text in given.items():
        if text is not None:
            with _named(f"--{name}"):
                params[name] = _PARAM_FLAGS[name][0](text)
    # linf_sum's summands: their balls go to the family as its (a, b).
    summands = [params.pop(name) for name in ("a", "b") if name in params]
    p = family.ball(*[ball for ball, _, _ in summands], **params)
    witness = family.witness(**params) if args.with_witness else _sum_witness(summands)
    if args.height is not None:
        if p.dim < 3:
            raise InputError("--height: only meaningful for prism families")
        axis = p.dim - 1
        with _named("--height"):
            h = parse_rational(args.height)
            # float(), as _parse_point converts a coordinate.
            p = scale_coordinate(p, axis, h if p.ctx.exact else float(h))
        if witness is not None:
            # Conjugated by the rescaling, the witness stays sharp.
            witness = scale_witness(witness, axis, h)
    text = _json(polytope_to_document(p, witness=witness))
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _verify_checks():
    """The self-contained reproduction suite; yields check dicts. The
    expected values are those of :data:`polyindex.families.FAMILIES` and the
    hexagon's worked example beside it."""
    checks = []

    def add(case, quantity, expected, computed, ok):
        checks.append({"case": case, "quantity": quantity, "expected": expected,
                       "computed": computed, "pass": bool(ok)})

    # Irregular hexagon: exact per-vertex bounds, the lower bound, a dual vertex.
    hexagon = irregular_hexagon()
    lo, cert = lower_bound(hexagon)
    for i, (want, e) in enumerate(zip(HEXAGON_VERTEX_BOUNDS, cert.entries)):
        add("irregular_hexagon", f"vertex_bound[{i}]", scalar_to_json(want),
            scalar_to_json(e.value), want == e.value)
    want = min(HEXAGON_VERTEX_BOUNDS)
    add("irregular_hexagon", "lower_bound", scalar_to_json(want), scalar_to_json(lo),
        lo == want)
    found = HEXAGON_DUAL_VERTEX in {f.coeffs for f in facet_enumeration(hexagon)}
    add("irregular_hexagon", "dual_vertex (2/3, 1/3)", True, found, found)

    # Rational bipyramid solid: exact tight bracket at its index.
    family = FAMILIES["bipyramid_square_prism"]
    bp, witness, want = family.ball(), family.witness(), family.index()
    wnorm, _ = operator_norm(bp, witness)
    add("bipyramid_square_prism", "witness_norm", "1", scalar_to_json(wnorm), wnorm == 1)
    bracket = index_bracket(bp, witnesses=[witness])
    add("bipyramid_square_prism", "lower_bound", scalar_to_json(want),
        scalar_to_json(bracket.lower), bracket.lower == want)
    add("bipyramid_square_prism", "witness_radius", scalar_to_json(want),
        scalar_to_json(bracket.radius_certificate.value),
        bracket.radius_certificate.value == want)
    add("bipyramid_square_prism", "status", "tight", bracket.status,
        bracket.status == "tight" and bracket.upper == want)

    # Float prism families: both bracket endpoints within 1e-7 of the index.
    tol = 1e-7
    members = [("oblique_prism", {"n": n, "l": l}) for n in (2, 3, 4, 5) for l in (0.0, 0.5)]
    members += [("prism_with_pyramids", {"n": n}) for n in (3, 4)]
    for kind, params in members:
        family = FAMILIES[kind]
        want = family.index(**params)
        bracket = index_bracket(family.ball(**params), witnesses=[family.witness(**params)])
        ok = abs(bracket.lower - want) < tol and abs(bracket.upper - want) < tol
        case = f"{kind}({', '.join(f'{k}={v}' for k, v in params.items())})"
        add(case, "bracket", want, [bracket.lower, bracket.upper], ok)

    return checks


def cmd_verify(args) -> int:
    checks = _verify_checks()
    passed = all(c["pass"] for c in checks)
    results = {"checks": checks, "passed": passed,
               "summary": f"{sum(c['pass'] for c in checks)}/{len(checks)} checks passed"}
    _emit(_report("verify", {}, results), args.format)
    return 0 if passed else 1


def _add_common(sp):
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--eps", type=float, default=None,
                    help="float-backend comparison tolerance (default 1e-9 or POLYINDEX_EPS)")
    sp.add_argument("--input", "-i", default="-", help="polytope document path or - for stdin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyindex",
        description="Facets, polar duals, operator norms, numerical radii and certified "
                    "numerical-index brackets for symmetric polytopal unit balls.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("hull", help="facet enumeration and vertex-facet incidence")
    _add_common(sp)
    sp.set_defaults(func=cmd_hull)

    sp = sub.add_parser("dual", help="vertices of the polar unit ball")
    _add_common(sp)
    sp.set_defaults(func=cmd_dual)

    sp = sub.add_parser("norm", help="gauge (norm) of a point")
    _add_common(sp)
    sp.add_argument("--point", required=True, help="comma-separated coordinates, e.g. '1/2,2'")
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("radius", help="operator norm and numerical radius of an operator")
    _add_common(sp)
    sp.add_argument("--operator", help="operator document path")
    sp.set_defaults(func=cmd_radius)

    sp = sub.add_parser("bound", help="certified two-sided bracket on the numerical index")
    _add_common(sp)
    sp.add_argument("--witness", action="append", help="witness operator document (repeatable)")
    sp.add_argument("--search", type=int, default=0,
                    help="budget of objective evaluations for the local search (default off)")
    sp.add_argument("--policy", choices=("all", "subset"), default="all",
                    help="functionals per vertex: all incident facets, or the first d "
                         "with independent normals")
    sp.add_argument("--seed", type=int, default=0, help="seed for the local search")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("family", help="generate a built-in family member document")
    sp.add_argument("kind", help=f"one of {sorted(FAMILIES)}")
    sp.add_argument("--n", type=int, help="half the base vertex count")
    sp.add_argument("--l", help="shear parameter (rational or decimal)")
    sp.add_argument("--height", help="rescale the last coordinate by this factor")
    sp.add_argument("--with-witness", action="store_true",
                    help="embed the family's sharp witness operator")
    sp.add_argument("--a", help="first summand: a polytope document path")
    sp.add_argument("--b", help="second summand: a polytope document path")
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_family)

    sp = sub.add_parser("verify", help="run the built-in reproduction suite")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: parse_args does not change it, and a fresh
    # parser per call leaves some 36 KB of reference cycles per call, which
    # stay in memory until the next full garbage collection.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "eps", None) is not None:
            check_tolerance(args.eps, "--eps")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolyindexError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe (`polyindex ... | head`). Point stdout at
        # devnull so that the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
