"""Model files that cannot crash kgen: a mutation property over the loader and CLI.

Each example takes a model file like the benchmark's (the two-Weyl model in
three variables, or a chiral model in two with four Dirac points) and, once or
twice, replaces a random JSON subtree with an awkward value or deletes a key.
Every mutant must load or raise ModelFormatError, and ``scan`` and ``charge``
must return an exit code (0, 1 or 2) rather than raise.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kgen import bandscan, cli
from kgen.errors import ModelFormatError
from kgen.fields import MatrixPolyField

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)

MODELS = [
    bandscan.BandModel(
        MatrixPolyField(3, 2, {(1, 0, 0): SIGMA_1, (0, 1, 0): SIGMA_2, (0, 0, 2): SIGMA_3,
                               (0, 0, 0): -0.25 * SIGMA_3}),
        name="two-weyl",
    ).to_payload(),
    bandscan.BandModel(
        MatrixPolyField(2, 2, {(2, 0): SIGMA_1, (0, 2): SIGMA_2,
                               (0, 0): -0.25 * SIGMA_1 - 0.16 * SIGMA_2}),
        chiral=SIGMA_3,
        name="chiral-four-dirac",
    ).to_payload(),
]

# What a hand-edited or corrupted file might hold: numbers at and past the float
# and int64 ranges, the wrong JSON type, and shapes that look almost right.
# Numbers are drawn as often as the rest, so that many mutants still load.
NUMBERS = [0, 1, -1, 2, 3, 0.5, -0.3, 1e-320, 1e154, -1e160, 1e200, 1e308, -1e308,
           float("nan"), float("inf"), 2**40, 2**63, 2**64, 10**400]
OTHERS = [None, True, False, "", "x", "1", [], {}, [0], [[0]], [[[0.0, 0.0]]], {"a": 1}]
VALUES = st.one_of(st.sampled_from(NUMBERS), st.sampled_from(OTHERS))


def _paths(node, prefix=()):
    """Key paths of every subtree of a JSON value, the root's () first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutants(draw):
    payload = copy.deepcopy(draw(st.sampled_from(MODELS)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(payload))))
        value = copy.deepcopy(draw(VALUES))
        if not path:
            payload = value
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return payload


@settings(max_examples=150, deadline=None)
@given(payload=mutants())
def test_mutated_model_files_are_loaded_or_refused_and_never_crash_the_cli(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)  # NaN and inf are written as NaN and Infinity
        try:
            bandscan.load_model(path)
        except ModelFormatError:
            pass
        for argv in (
            ["scan", path, "--grid", "8", "--resolution", "8"],
            ["charge", path, "--radius", "0.3", "--resolution", "8"],
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                assert cli.main(argv) in (0, 1, 2)
