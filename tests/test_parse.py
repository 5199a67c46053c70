"""Error messages and values of the document parsers.

A field's matrices are converted and checked as one stack, and a
document with any fault is walked element by element to name the first
fault in document order.  The messages below are the walk's; each
malformed document carries two faults, and the earlier one must be the
one named.  Property tests check that the stacked path gives the
entries of point-by-point HermitianMatrix construction bit for bit, and
the field the walk gives.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crmorse.cli
from crmorse.cli import PARSE_HERMITIAN_TOL, parse_field, parse_heisenberg, parse_model, parse_torus
from crmorse.errors import InputError
from crmorse.pencil import HermitianMatrix
from oracle_tools import HUGE, mat


def message(parse, doc):
    with pytest.raises(InputError) as exc:
        parse(json.dumps(doc).encode())
    return str(exc.value)


def _set(path, value):
    """A mutation that sets the element at ``path`` (keys and indices) of a point."""

    def mutate(p):
        target = p
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return p

    return mutate


def _drop(key):
    def mutate(p):
        del p[key]
        return p

    return mutate


# name -> (mutation of a d = 2 point, message with {p} for the point's path)
POINT_FAULTS = {
    "not-object": (lambda p: [1, 2], "{p}: expected an object"),
    "no-label": (_drop("label"), "{p}: missing required key 'label'"),
    "empty-label": (_set(["label"], ""), "{p}.label: expected a nonempty string"),
    "int-label": (_set(["label"], 5), "{p}.label: expected a nonempty string"),
    "bool-weight": (_set(["weight"], True), "{p}.weight: expected a real number, got True"),
    "str-weight": (_set(["weight"], "1"), "{p}.weight: expected a real number, got '1'"),
    "zero-weight": (_set(["weight"], 0), "{p}.weight: must be positive, got 0.0"),
    "inf-weight": (_set(["weight"], math.inf), "{p}.weight: expected a finite number, got inf"),
    "huge-weight": (
        _set(["weight"], HUGE),
        "{p}.weight: expected a finite number, got an integer of 400 digits",
    ),
    "no-R": (_drop("R"), "{p}: missing required key 'R'"),
    "scalar-R": (_set(["R"], 5), "{p}.R: expected a matrix as a list of rows"),
    "small-R": (_set(["R"], mat([[1]])), "{p}.R: matrix dimension 1 does not match n-1 = 2"),
    "ragged-R": (_set(["R", 1], [[1, 0]]), "{p}.R[1]: expected a row of 2 entries"),
    "short-cell-R": (_set(["R", 0, 1], [1]), "{p}.R[0][1]: expected an [re, im] pair, got [1]"),
    "bool-entry-R": (_set(["R", 1, 0, 1], False), "{p}.R[1][0][1]: expected a real number, got False"),
    "null-entry-R": (_set(["R", 0, 0, 0], None), "{p}.R[0][0][0]: expected a real number, got None"),
    "str-entry-R": (_set(["R", 1, 1, 0], "3"), "{p}.R[1][1][0]: expected a real number, got '3'"),
    "huge-entry-R": (
        _set(["R", 0, 0, 0], HUGE),
        "{p}.R[0][0][0]: expected a finite number, got an integer of 400 digits",
    ),
    "nan-entry-L": (_set(["L", 1, 1, 0], math.nan), "{p}.L[1][1][0]: expected a finite number, got nan"),
    "no-L": (_drop("L"), "{p}: missing required key 'L'"),
    "non-hermitian-L": (
        _set(["L", 0, 1], [5, 0]),
        "{p}.L: matrix is not Hermitian: max |A - A*| = 5.000e+00 exceeds tolerance 6.000e-09",
    ),
}


def field(points=6):
    return {
        "schema": "crmorse/field-v1",
        "n": 3,
        "delta": 1.0,
        "points": [
            {"label": "p%d" % i, "weight": 1.0, "R": mat([[2, 1j], [-1j, 3]]), "L": mat([[1, 0], [0, -1]])}
            for i in range(points)
        ],
    }


@pytest.mark.parametrize("first, second", list(itertools.permutations(POINT_FAULTS, 2)))
def test_field_names_first_of_two_faults(first, second):
    doc = field()
    doc["points"][1] = POINT_FAULTS[first][0](doc["points"][1])
    doc["points"][4] = POINT_FAULTS[second][0](doc["points"][4])
    assert message(parse_field, doc) == POINT_FAULTS[first][1].format(p="points[1]")


@pytest.mark.parametrize("fault", list(POINT_FAULTS))
def test_field_fault_at_last_point(fault):
    # every point before the fault is clean, so the stack is all but whole
    doc = field(points=40)
    doc["points"][-1] = POINT_FAULTS[fault][0](doc["points"][-1])
    assert message(parse_field, doc) == POINT_FAULTS[fault][1].format(p="points[39]")


def model():
    return {"schema": "crmorse/model-v1", "d": 2, "lambda": [1.0, -2.0], "mu": mat([[3, 1], [1, 3]]), "delta": 0.5}


def torus():
    return {"schema": "crmorse/torus-v1", "d": 2, "lambda": mat([[1, 0], [0, 1]]),
            "mu": mat([[1, 0], [0, -1]]), "delta": 0.25}


def heisenberg():
    return {"schema": "crmorse/heisenberg-v1", "d": 2, "lambda": [1, 2], "mu": mat([[3, 1], [1, 3]]), "delta": 0.5}


def _with(doc, *changes):
    for path, value in changes:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "parse, doc, expected",
    [
        (parse_model, _with(model(), (["lambda", 1], "x"), (["mu", 0, 1, 0], True)),
         "lambda[1]: expected a real number, got 'x'"),
        (parse_model, _with(model(), (["mu", 0, 1], [1]), (["mu", 1, 0, 1], None)),
         "mu[0][1]: expected an [re, im] pair, got [1]"),
        (parse_model, _with(model(), (["mu", 1, 0], [7, 0]), (["delta"], "wide")),
         "mu: matrix is not Hermitian: max |A - A*| = 6.000e+00 exceeds tolerance 8.000e-09"),
        (parse_model, _with(model(), (["mu", 1, 1, 1], math.nan), (["mu", 0, 0, 0], HUGE)),
         "mu[0][0][0]: expected a finite number, got an integer of 400 digits"),
        (parse_model, _with(model(), (["mu"], mat([[1]])), (["delta"], None)),
         "mu: matrix dimension 1 does not match d = 2"),
        (parse_torus, _with(torus(), (["lambda", 1], [[0, 0]]), (["mu", 0, 0, 0], "1")),
         "lambda[1]: expected a row of 2 entries"),
        (parse_torus, _with(torus(), (["lambda", 0, 1], [2, 0]), (["mu"], 3)),
         "lambda: matrix is not Hermitian: max |A - A*| = 2.000e+00 exceeds tolerance 3.000e-09"),
        (parse_torus, _with(torus(), (["mu", 1, 1, 1], math.inf), (["delta"], -1)),
         "mu[1][1][1]: expected a finite number, got inf"),
        (parse_torus, _with(torus(), (["lambda", 0, 0, 0], 0.5), (["mu", 1, 1, 0], 0.25)),
         "lambda[0][0][0]: expected an integer that a float holds exactly, got 0.5"),
        (parse_heisenberg, _with(heisenberg(), (["lambda", 0], 1.5), (["mu", 0, 1], [0])),
         "lambda[0]: expected an integer, got 1.5"),
        (parse_heisenberg, _with(heisenberg(), (["mu", 1, 0, 0], False), (["delta"], math.nan)),
         "mu[1][0][0]: expected a real number, got False"),
        (parse_heisenberg, _with(heisenberg(), (["mu", 0, 1], [1, 4]), (["lambda", 1], 0)),
         "mu: matrix is not Hermitian: max |A - A*| = 4.000e+00 exceeds tolerance 5.123e-09"),
        # an integer entry is checked where its matrix is read, and the spec
        # checks run once every key has parsed
        (parse_torus, _with(torus(), (["mu", 0, 0, 0], 1.5), (["delta"], -1)),
         "mu[0][0][0]: expected an integer that a float holds exactly, got 1.5"),
        (parse_heisenberg, _with(heisenberg(), (["lambda", 1], 0), (["delta"], 0)),
         "lambda[1]: must be nonzero"),
        (parse_heisenberg, _with(heisenberg(), (["mu", 1, 1, 0], 2.5), (["delta"], 0)),
         "mu[1][1][0]: expected an integer that a float holds exactly, got 2.5"),
        # faults of the document itself: its root, a dimension, the points, a
        # Levi vector's length
        (parse_model, [model()], "document root must be a JSON object"),
        (parse_field, _with(field(), (["n"], 1), (["delta"], "wide")), "n: must be >= 2, got 1"),
        (parse_heisenberg, _with(heisenberg(), (["d"], 0), (["mu"], 3)), "d: must be >= 1, got 0"),
        (parse_field, _with(field(), (["points"], [])), "points: expected a nonempty list of sample points"),
        (parse_model, _with(model(), (["lambda"], [1.0]), (["delta"], "wide")),
         "lambda: expected a list of 2 real Levi eigenvalues"),
        (parse_heisenberg, _with(heisenberg(), (["lambda"], [1, 2, 3]), (["mu", 0, 1], [0])),
         "lambda: expected a list of 2 integer Levi eigenvalues"),
        # an int literal that its float does not hold, before a later fault
        (parse_torus, _with(torus(), (["mu", 0, 0, 0], 2**53 + 1), (["delta"], "wide")),
         "mu[0][0][0]: expected an integer that a float holds exactly, got 9007199254740993"),
        (parse_heisenberg, _with(heisenberg(), (["lambda", 0], 2**53 + 1), (["mu", 0, 1], [0])),
         "lambda[0]: expected an integer that a float holds exactly, got 9007199254740993"),
        # an integer matrix is Hermitian exactly: the mean of 10^12 and
        # 10^12 + 1 would be a count the document does not hold
        (parse_torus, _with(torus(), (["mu", 0, 1], [10**12, 0]), (["mu", 1, 0], [10**12 + 1, 0])),
         "mu: an integer matrix must be exactly Hermitian"),
    ],
)
def test_matrix_documents_name_first_fault(parse, doc, expected):
    assert message(parse, doc) == expected


# ------------------------------------------------- stacked values


@st.composite
def near_hermitian(draw, d):
    """A d x d matrix document, Hermitian within PARSE_HERMITIAN_TOL, with
    integer entries, signed zeros and mixed magnitudes."""
    kind = draw(st.sampled_from(["int", "small", "large", "mixed"]))
    pool = {
        "int": st.integers(-50, 50).map(float),
        "small": st.floats(-1e-6, 1e-6, allow_nan=False),
        "large": st.floats(-1e12, 1e12, allow_nan=False),
        "mixed": st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e-300, 2.5e-8, 7e15, -1e100]),
    }[kind]
    upper = [[(draw(pool), draw(pool)) for _ in range(d)] for _ in range(d)]
    # below the tolerance at any scale: |A - A*| <= 0.9 tol
    wobble = st.sampled_from([0.0, 0.0, 0.3, -0.45]).map(lambda f: f * PARSE_HERMITIAN_TOL)

    def nudge(x):
        w = draw(wobble)
        return x + w if w else x  # x + 0.0 would turn -0.0 into 0.0

    rows = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            re, im = upper[i][j]
            if i == j:
                rows[i][i] = [re, nudge(draw(st.sampled_from([0.0, -0.0])))]
            else:
                rows[i][j] = [re, im]
                rows[j][i] = [nudge(re), nudge(-im)]
    # an integral entry may be written as a JSON integer
    return [[[int(x) if x.is_integer() and draw(st.booleans()) else x for x in cell] for cell in row] for row in rows]


@st.composite
def field_docs(draw):
    d = draw(st.integers(1, 4))
    points = [
        {"label": "p%d" % i, "weight": draw(st.sampled_from([1, 0.5, 3.25])),
         "R": draw(near_hermitian(d)), "L": draw(near_hermitian(d))}
        for i in range(draw(st.integers(1, 6)))
    ]
    return {"schema": "crmorse/field-v1", "n": d + 1, "delta": 1.0, "points": points}


def _pointwise(rows):
    a = np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])
    return HermitianMatrix(a, tol=PARSE_HERMITIAN_TOL).entries


@settings(max_examples=80, deadline=None, derandomize=True)
@given(doc=field_docs())
def test_stacked_parse_equals_pointwise_construction(doc):
    parsed = parse_field(json.dumps(doc).encode())
    for p, raw in zip(parsed.points, doc["points"]):
        assert p.r.entries.tobytes() == _pointwise(raw["R"]).tobytes()  # signed zeros included
        assert p.el.entries.tobytes() == _pointwise(raw["L"]).tobytes()
        assert not p.r.entries.flags.writeable


@settings(max_examples=40, deadline=None, derandomize=True)
@given(doc=field_docs())
def test_stacked_and_walked_parses_give_equal_fields(doc):
    raw = json.dumps(doc).encode()
    stacked = parse_field(raw)
    # as for a document with a fault: every matrix walked element by element
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crmorse.cli, "_stacked_points", lambda raw_points, d: None)
        walked = parse_field(raw)
    assert stacked == walked and hash(stacked) == hash(walked)
    for key in ("r", "el", "weights"):
        a, b = getattr(stacked, key), getattr(walked, key)
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype  # signed zeros included
        assert not a.flags.writeable and not b.flags.writeable
    assert stacked.labels == walked.labels == tuple(p["label"] for p in doc["points"])

