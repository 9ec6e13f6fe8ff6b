"""Clifford representation construction, validation and handedness."""

import copy
import json
import math
import re
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgen import clifford
from kgen.clifford import (
    LEFT,
    MAX_D,
    RIGHT,
    CliffordRep,
    build_rep,
    extend,
    flip_first,
    grading_of,
    handedness_of,
    verify_rep,
)
from kgen._linalg import dagger, max_abs
from kgen.errors import (
    InconsistentRepresentationError,
    KgenError,
    ModelFormatError,
    NotIrreducibleError,
)
from kgen.serialize import json_text, matrix_to_json

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def product(gammas):
    return reduce(np.matmul, gammas)


def test_base_case_d1():
    left = build_rep(1, LEFT)
    right = build_rep(1, RIGHT)
    assert np.array_equal(left.gammas[0], [[1.0]])
    assert np.array_equal(right.gammas[0], [[-1.0]])
    assert handedness_of(left) == LEFT
    assert handedness_of(right) == RIGHT


def test_base_case_d2_is_pauli_pair():
    rep = build_rep(2)
    assert rep.handedness is None
    assert np.array_equal(rep.gammas[0], SIGMA_1)
    assert np.array_equal(rep.gammas[1], SIGMA_2)


def test_printed_pauli_triple_handedness():
    # Multiplying the Pauli matrices as stored: sigma1 sigma2 sigma3 = -i,
    # which is the right-handed scalar -i^((3-1)/2).
    triple = CliffordRep(d=3, gammas=(SIGMA_1, SIGMA_2, SIGMA_3))
    prod = product(triple.gammas)
    assert np.array_equal(prod, -1j * np.eye(2))
    assert handedness_of(triple) == RIGHT


def test_build_rep_d3_enforces_requested_label():
    left = build_rep(3, LEFT)
    assert np.array_equal(product(left.gammas), 1j * np.eye(2))
    assert handedness_of(left) == LEFT
    # The left rep is the printed triple with the first generator negated.
    assert np.array_equal(left.gammas[0], -SIGMA_1)
    assert np.array_equal(left.gammas[1], SIGMA_2)
    assert np.array_equal(left.gammas[2], SIGMA_3)

    right = build_rep(3, RIGHT)
    assert np.array_equal(right.gammas[0], SIGMA_1)
    assert handedness_of(right) == RIGHT


def test_extend_block_forms():
    rep = extend(build_rep(1, LEFT))
    assert rep.d == 3 and rep.N == 2
    assert np.array_equal(rep.gammas[0], SIGMA_1)
    assert np.array_equal(rep.gammas[1], SIGMA_2)
    assert np.array_equal(rep.gammas[2], SIGMA_3)

    rep5 = extend(rep)
    assert rep5.d == 5 and rep5.N == 4
    zero = np.zeros((2, 2))
    for i in range(3):
        expected = np.block([[zero, rep.gammas[i]], [rep.gammas[i], zero]])
        assert np.array_equal(rep5.gammas[i], expected)
    assert np.array_equal(rep5.gammas[3], np.kron(SIGMA_2, np.eye(2)))
    assert np.array_equal(rep5.gammas[4], np.kron(SIGMA_3, np.eye(2)))
    assert verify_rep(rep5).ok


def test_extend_requires_odd():
    with pytest.raises(ValueError):
        extend(build_rep(2))


def test_extend_twice_dimension_bookkeeping():
    rep = extend(extend(build_rep(1, LEFT)))
    assert rep.d == 5
    assert rep.N == 2 ** (5 // 2) == 4


def test_truncated_extension_is_valid_rep():
    # Dropping the last generator of an extension leaves an irreducible rep of
    # one fewer generators at the same matrix size.
    for d_odd in (3, 5, 7):
        rep = build_rep(d_odd, LEFT)
        trunc = CliffordRep(d=d_odd - 1, gammas=rep.gammas[: d_odd - 1])
        assert verify_rep(trunc).ok


@pytest.mark.parametrize("d", range(1, 10))
def test_exact_invariants_all_dimensions(d):
    # Entries stay in {0, +-1, +-i}, so every residual must be exactly zero.
    variants = (LEFT, RIGHT) if d % 2 else (None,)
    for hand in variants:
        rep = build_rep(d) if hand is None else build_rep(d, hand)
        assert rep.N == 2 ** (d // 2)
        eye = np.eye(rep.N)
        for g in rep.gammas:
            assert np.array_equal(g, g.conj().T)
            assert np.array_equal(g @ g, eye)
        for i in range(d):
            for j in range(i + 1, d):
                anti = rep.gammas[i] @ rep.gammas[j] + rep.gammas[j] @ rep.gammas[i]
                assert np.array_equal(anti, np.zeros_like(anti))
        report = verify_rep(rep)
        assert report.ok
        assert report.max_residual == 0.0


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_handedness_scalar_matches_convention(d):
    for hand, sign in ((LEFT, 1), (RIGHT, -1)):
        rep = build_rep(d, hand)
        prod = product(rep.gammas)
        expected = sign * 1j ** ((d - 1) // 2) * np.eye(rep.N)
        assert np.array_equal(prod, expected)


def test_handedness_d5_left_product_is_minus_identity():
    rep = build_rep(5, LEFT)
    assert np.array_equal(product(rep.gammas), -np.eye(4))


@pytest.mark.parametrize("d", [1, 3, 5, 7])
def test_flip_first_toggles_handedness(d):
    rep = build_rep(d, LEFT)
    flipped = flip_first(rep)
    assert handedness_of(flipped) == RIGHT
    assert handedness_of(flip_first(flipped)) == LEFT
    assert np.array_equal(flip_first(flipped).gammas[0], rep.gammas[0])


def test_flip_first_even_d_keeps_invariants():
    rep = flip_first(build_rep(4))
    assert verify_rep(rep).ok
    assert rep.handedness is None


def test_handedness_requires_odd():
    with pytest.raises(ValueError):
        handedness_of(build_rep(2))


def test_handedness_rejects_non_scalar_product():
    rep = CliffordRep(d=3, gammas=(SIGMA_1, SIGMA_1, SIGMA_3))
    with pytest.raises(NotIrreducibleError):
        handedness_of(rep)


def test_verify_rep_detects_anticommutation_failure():
    rep = CliffordRep(d=2, gammas=(SIGMA_1, SIGMA_1))
    report = verify_rep(rep)
    kinds = {v.kind: v for v in report.violations}
    assert "anti-commutation" in kinds
    assert kinds["anti-commutation"].residual == 2.0


def test_verify_rep_detects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    rep = CliffordRep(d=2, gammas=(bad, SIGMA_2))
    report = verify_rep(rep)
    kinds = {v.kind: v for v in report.violations}
    assert "hermiticity" in kinds
    assert kinds["hermiticity"].residual == 1.0


@pytest.mark.parametrize(
    "d, gammas, error, message",
    [
        (1, (SIGMA_1,), InconsistentRepresentationError, "dimension (N = 2, expected 1)"),
        (2, (SIGMA_1, np.eye(3)), ModelFormatError, "generator 2 has shape (3, 3), expected (2, 2)"),
    ],
    ids=["dimension", "shape"],
)
def test_verify_rep_detects_wrong_sizes(d, gammas, error, message):
    # A size N other than 2^floor(d/2) is a verify_rep violation; generators
    # of two sizes are no representation, refused where they are built.
    with pytest.raises(error, match=re.escape(message)):
        clifford._refuse_violation(verify_rep(CliffordRep(d=d, gammas=gammas)).violations)


def _nan_at_0_1_of_generator_1(d):
    gammas = [g.copy() for g in build_rep(d).gammas]
    gammas[0][0, 1] = np.nan
    return tuple(gammas)


@pytest.mark.parametrize(
    "gammas", [(np.array([[np.nan]]),), _nan_at_0_1_of_generator_1(3)], ids=["1x1", "d3"]
)
def test_verify_rep_refuses_a_nan_entry(gammas):
    # A NaN entry never reaches verify_rep: the constructor refuses it.
    with pytest.raises(ModelFormatError, match="generator 1 is not finite"):
        verify_rep(CliffordRep(len(gammas), gammas))


def test_grading_of_refuses_a_nan_entry():
    rep = build_rep(2)
    gammas = (rep.gammas[0], np.where(np.eye(2, dtype=bool), np.nan, rep.gammas[1]))
    with pytest.raises(ModelFormatError, match="generator 2 is not finite"):
        grading_of(CliffordRep(2, gammas))


@pytest.mark.parametrize("d", range(1, MAX_D + 1, 2))
def test_handedness_is_read_from_the_generators(d):
    for hand, other in ((LEFT, RIGHT), (RIGHT, LEFT)):
        rep = build_rep(d, hand)
        assert rep.handedness == handedness_of(rep) == hand
        assert flip_first(rep).handedness == other


def test_a_representation_takes_no_label():
    with pytest.raises(TypeError):
        CliffordRep(3, build_rep(3).gammas, RIGHT)


@pytest.mark.parametrize("d", range(1, MAX_D + 1))
def test_payload_round_trips_every_level(d):
    for hand in (LEFT, RIGHT) if d % 2 else (LEFT,):
        rep = build_rep(d, hand)
        back = CliffordRep.from_payload(json.loads(json.dumps(rep.to_payload())))
        assert (back.d, back.handedness) == (d, rep.handedness)
        assert bits(back.gammas) == bits(rep.gammas)


@pytest.mark.parametrize(
    "d, hand, label",
    [(3, RIGHT, LEFT), (3, LEFT, RIGHT), (13, LEFT, RIGHT), (3, LEFT, None), (4, LEFT, LEFT)],
)
def test_payload_with_a_contradicted_label_is_refused(d, hand, label):
    # The printed Pauli triple is right-handed: a file that calls it left
    # is refused when it is loaded, not read with a wrong label.
    payload = {**build_rep(d, hand).to_payload(), "handedness": label}
    with pytest.raises(InconsistentRepresentationError, match=f"label says {label!r}"):
        CliffordRep.from_payload(payload)


@pytest.mark.parametrize("d", ["1", True, 1.9, 1.0, None])
def test_payload_d_must_be_a_json_integer(d):
    payload = {**build_rep(1).to_payload(), "d": d}
    with pytest.raises(ModelFormatError, match="'d' must be an integer"):
        CliffordRep.from_payload(payload)


@pytest.mark.parametrize("key", ["d", "handedness", "gammas"])
def test_payload_missing_a_key_is_refused(key):
    payload = build_rep(3).to_payload()
    del payload[key]
    with pytest.raises(ModelFormatError, match=f"missing the {key!r} key"):
        CliffordRep.from_payload(payload)


def test_build_rep_argument_validation():
    with pytest.raises(ValueError):
        build_rep(0)
    with pytest.raises(ValueError):
        build_rep(14)
    with pytest.raises(ValueError):
        build_rep(3, "sideways")


def test_build_rep_checks_its_arguments_before_the_chain_cache():
    # The cache would take 3.0 for 3, so the checks come first.
    build_rep(3)
    for d in (3.0, "3", 0, 14):
        with pytest.raises(ValueError):
            build_rep(d)


def chain_by_extend(d):
    """The first odd level >= d of a chain built here from the 1 x 1 rep."""
    rep = CliffordRep(d=1, gammas=(np.array([[1.0]], dtype=complex),))
    while rep.d < d:
        rep = extend(rep)
    return rep


def bits(gammas):
    return [(g.dtype, g.shape, g.tobytes()) for g in gammas]


@pytest.mark.parametrize("d", range(1, MAX_D + 1))
def test_cached_chain_matches_a_chain_built_by_extend(d):
    level = chain_by_extend(d)
    for hand in (LEFT, RIGHT) if d % 2 else (LEFT,):
        rep = build_rep(d, hand)
        if d % 2 == 0:
            expected, label = level.gammas[:d], None
        elif level.handedness == hand:
            expected, label = level.gammas, hand
        else:
            expected, label = (-level.gammas[0],) + level.gammas[1:], hand
        assert (rep.d, rep.handedness) == (d, label)
        assert bits(rep.gammas) == bits(expected)
        assert not any(g.flags.writeable for g in rep.gammas)


def test_each_chain_level_is_built_once(monkeypatch):
    for d in range(1, MAX_D + 1):
        build_rep(d)
    calls = []
    monkeypatch.setattr(clifford, "extend", lambda rep: calls.append(rep.d) or extend(rep))
    for d in range(1, MAX_D + 1):
        for hand in (LEFT, RIGHT):
            build_rep(d, hand)
    assert calls == []


def test_grading_of_pauli_pair():
    # Oracle: the unique fourth root of unity with lambda * sigma1 sigma2 = sigma3
    # is lambda = i, since sigma1 sigma2 = -i sigma3 for the stored sign of sigma2.
    rep = build_rep(2)
    assert np.array_equal(SIGMA_1 @ SIGMA_2, -1j * SIGMA_3)
    grading = grading_of(rep)
    assert np.array_equal(grading.matrix, SIGMA_3)
    assert grading.phase == 1j


def test_grading_of_extended_truncation():
    rep5 = build_rep(5, LEFT)
    rep4 = CliffordRep(d=4, gammas=rep5.gammas[:4])
    grading = grading_of(rep4)
    expected = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    assert np.array_equal(grading.matrix, expected)
    # Anti-commutation with every generator is exact.
    for g in rep4.gammas:
        assert np.array_equal(grading.matrix @ g + g @ grading.matrix, np.zeros((4, 4)))
    assert np.array_equal(grading.matrix @ grading.matrix, np.eye(4))


def test_grading_of_anti_hermitian_product_with_zero_diagonal():
    # sigma2 sigma3 = -i sigma1 is anti-Hermitian, so the phase is +-i; the
    # grading sigma1 has no diagonal, so its first off-diagonal entry picks the sign.
    grading = grading_of(CliffordRep(2, (SIGMA_2, SIGMA_3)))
    assert np.array_equal(grading.matrix, SIGMA_1)
    assert grading.phase == 1j


def test_grading_requires_even():
    with pytest.raises(ValueError):
        grading_of(build_rep(3, LEFT))


def test_grading_rejects_unphaseable_product():
    phase = np.exp(1j * np.pi / 4)
    weird = np.array([[0, phase], [phase.conjugate(), 0]], dtype=complex)
    rep = CliffordRep(d=2, gammas=(SIGMA_1, weird))
    with pytest.raises(InconsistentRepresentationError):
        grading_of(rep)


def test_json_round_trip():
    rep = build_rep(5, RIGHT)
    payload = rep.to_payload()
    assert payload["handedness"] == RIGHT
    back = CliffordRep.from_payload(payload)
    assert back.d == rep.d
    for a, b in zip(back.gammas, rep.gammas):
        assert np.array_equal(a, b)


def test_gammas_are_read_only():
    rep = build_rep(2)
    with pytest.raises(ValueError):
        rep.gammas[0][0, 0] = 5.0


@pytest.mark.parametrize("d", range(1, MAX_D + 1))
def test_the_relations_fix_the_product_at_every_level(d):
    # What makes verify_rep's dimension and relation checks enough: for odd d
    # the product is exactly +-i^((d-1)/2) I, and for even d the grading's
    # phase is +-1 or +-i by the parity of d(d-1)/2.
    if d % 2:
        for hand, sign in ((LEFT, 1), (RIGHT, -1)):
            expected = sign * 1j ** ((d - 1) // 2) * np.eye(2 ** (d // 2))
            assert np.array_equal(product(build_rep(d, hand).gammas), expected)
    else:
        phase = grading_of(build_rep(d)).phase
        assert phase in ((1j, -1j) if d * (d - 1) // 2 % 2 else (1, -1))


def payload_of(d, handedness, gammas):
    return {"d": d, "handedness": handedness, "gammas": [matrix_to_json(g) for g in gammas]}


@pytest.mark.parametrize(
    "payload, kind",
    [
        # Even d has no label to check, so the relations are all there is.
        (payload_of(2, None, (SIGMA_1, SIGMA_1)), "anti-commutation"),
        # The product of (sigma1, sigma1, iI) is iI, the left-handed scalar.
        (payload_of(3, LEFT, (SIGMA_1, SIGMA_1, 1j * np.eye(2))), "hermiticity"),
        (payload_of(1, LEFT, (2 * np.eye(1),)), "unitarity"),
        (payload_of(1, LEFT, (np.eye(2),)), "dimension"),
    ],
    ids=["anti-commuting-pair", "left-scalar-non-hermitian", "unitarity", "dimension"],
)
def test_payload_failing_verify_rep_is_refused(payload, kind):
    with pytest.raises(InconsistentRepresentationError, match=f"representation: {kind} "):
        CliffordRep.from_payload(payload)


def test_payload_d_must_be_at_least_one():
    with pytest.raises(ModelFormatError, match="a representation needs d >= 1, got 0"):
        CliffordRep.from_payload({"d": 0, "handedness": None, "gammas": []})


@pytest.mark.parametrize(
    "gammas, named",
    [(5, "'gammas' must be a list, got int"),
     (build_rep(2).to_payload()["gammas"][:1], "expected 2 generators, got 1")],
    ids=["not-a-list", "one-short"],
)
def test_payload_gammas_must_be_a_list_of_d_matrices(gammas, named):
    with pytest.raises(ModelFormatError, match=re.escape(named)):
        CliffordRep.from_payload({"d": 2, "handedness": None, "gammas": gammas})


@pytest.mark.parametrize(
    "d, gammas, message, read_message",
    [
        (2, (SIGMA_1, np.array([[1, np.inf], [0, 1]])), "generator 2 is not finite", None),
        (1, (np.ones((2, 3)),), "generator 1 has shape (2, 3), expected (2, 2)",
         "complex matrix must be square"),
        (1, (np.ones(2),), "generator 1 has shape (2,), expected (2, 2)", None),
        (1, (1.0,), "generator 1 has shape (), expected (1, 1)", None),
        (3.0, (SIGMA_1, SIGMA_2, SIGMA_3), "a representation needs an integer d, got 3.0",
         "'d' must be an integer, got 3.0"),
    ],
    ids=["inf", "non-square", "1-D", "scalar", "d=3.0"],
)
def test_the_constructor_refuses_what_is_no_representation(d, gammas, message, read_message):
    # The constructor is the one check of the generator schema; read_message
    # is the refusal of the same input read from JSON, where JSON can hold it.
    # NaN, ragged sizes, d = 0 and a wrong count have tests of their own.
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        CliffordRep(d, gammas)
    if read_message is not None:
        payload = json.loads(json.dumps(payload_of(d, None, gammas)))
        with pytest.raises(ModelFormatError, match=re.escape(read_message)):
            CliffordRep.from_payload(payload)


def test_d_is_read_as_a_python_integer():
    # A numpy d would make the payload unserializable.
    rep = CliffordRep(np.int64(3), build_rep(3).gammas)
    assert type(rep.d) is int
    assert CliffordRep.from_payload(json.loads(json_text(rep.to_payload()))).d == 3


def test_a_representation_needs_d_at_least_one():
    with pytest.raises(ModelFormatError, match="needs d >= 1, got 0"):
        CliffordRep(0, ())


def test_grading_of_a_reducible_pair():
    # The relations hold without irreducibility, and so does the grading.
    rep = CliffordRep(2, (np.kron(np.eye(2), SIGMA_1), np.kron(np.eye(2), SIGMA_2)))
    assert not verify_rep(rep).ok
    grading = grading_of(rep)
    assert np.array_equal(grading.matrix, np.diag([1, -1, 1, -1]).astype(complex))
    assert grading.phase == 1j


def test_handedness_refuses_a_scalar_product_off_both_signs():
    with pytest.raises(InconsistentRepresentationError, match="differs from both"):
        handedness_of(CliffordRep(1, (2 * np.eye(1),)))


def test_extend_refuses_to_pass_the_maximum():
    with pytest.raises(ValueError, match="exceeds the maximum"):
        extend(build_rep(MAX_D))


def test_a_representation_needs_d_generators():
    with pytest.raises(ModelFormatError, match="expected 3 generators, got 2"):
        CliffordRep(3, build_rep(2).gammas)


def test_handedness_refuses_generators_of_two_sizes():
    # No representation holds generators of two sizes, so handedness_of
    # never meets one, built or read.
    gammas = (np.eye(2), np.eye(2), np.eye(4))
    for build in (lambda: CliffordRep(3, gammas),
                  lambda: CliffordRep.from_payload(payload_of(3, LEFT, gammas))):
        with pytest.raises(ModelFormatError,
                           match=re.escape("generator 3 has shape (4, 4), expected (2, 2)")):
            handedness_of(build())


def dense_violations(rep):
    """The relations as dense products, pair by pair: the reference that the
    signed-permutation residuals must reproduce.  A NaN residual is not at
    most the tolerance, so it is a violation."""
    tol = clifford.INVARIANT_TOL
    violations = []
    eye = np.eye(rep.N, dtype=complex)
    for j, g in enumerate(rep.gammas):
        r = max_abs(g - dagger(g))
        if not r <= tol:
            violations.append(("hermiticity", r, f"generator {j + 1}"))
        r = max_abs(g @ g - eye)
        if not r <= tol:
            violations.append(("unitarity", r, f"generator {j + 1} squared"))
    for i in range(rep.d):
        for j in range(i + 1, rep.d):
            r = max_abs(rep.gammas[i] @ rep.gammas[j] + rep.gammas[j] @ rep.gammas[i])
            if not r <= tol:
                violations.append(("anti-commutation", r, f"generators {i + 1}, {j + 1}"))
    return violations


def assert_violations_match_dense(rep):
    """The violation lists of ``rep`` equal the dense reference's in kind,
    detail, order and residual bits, at INVARIANT_TOL and with every residual
    listed (a negative tolerance)."""
    for tol in (clifford.INVARIANT_TOL, -1.0):
        with mock.patch.object(clifford, "INVARIANT_TOL", tol):
            got = [(v.kind, v.residual, v.detail) for v in clifford._relation_violations(rep)]
            expected = dense_violations(rep)
        assert all(type(r) is float for _, r, _ in got)
        assert [(k, r.hex(), t) for k, r, t in got] == [(k, r.hex(), t) for k, r, t in expected]


def _signed_permutation_matrix(perm, vals):
    g = np.zeros((len(perm), len(perm)), dtype=complex)
    g[np.arange(len(perm)), perm] = vals
    return g


@pytest.mark.parametrize("d", range(1, MAX_D + 1))
def test_every_level_is_read_as_a_signed_permutation(d):
    # The premise of the signed-permutation residuals, and what keeps the
    # clifford suite off the dense products: a change to extend that broke it
    # would fail here.
    for hand in (LEFT, RIGHT):
        rep = build_rep(d, hand)
        for g in rep.gammas:
            perm, vals = clifford._signed_permutation(g)
            assert sorted(perm) == list(range(rep.N))
            assert set(vals.tolist()) <= {1, -1, 1j, -1j}
            assert np.array_equal(g, _signed_permutation_matrix(perm, vals))


@pytest.mark.parametrize("d", range(1, MAX_D + 1))
def test_every_level_has_the_dense_residuals(d):
    for hand in (LEFT, RIGHT):
        assert_violations_match_dense(build_rep(d, hand))


# Entries of the drawn stacks: exact phases, a unit phase that is not, a value
# off 1 by 1e-13 (inside the tolerance) and one off by a factor 2.
ENTRIES = (1, 1j, 0.6 + 0.8j, 1 + 1e-13, 2)


@st.composite
def signed_permutation_stacks(draw):
    """Signed-permutation generators: either drawn outright, or a built
    level with N <= 16 given sign, value and permutation errors."""
    entry = st.builds(lambda v, negate: -v if negate else v, st.sampled_from(ENTRIES), st.booleans())
    if draw(st.booleans()):
        n, d = draw(st.integers(1, 16)), draw(st.integers(1, 6))
        gammas = [_signed_permutation_matrix(draw(st.permutations(range(n))),
                                             draw(st.lists(entry, min_size=n, max_size=n)))
                  for _ in range(d)]
        return CliffordRep(d, tuple(gammas))
    rep = build_rep(draw(st.integers(1, 9)), draw(st.sampled_from((LEFT, RIGHT))))
    forms = [[list(f) for f in clifford._signed_permutation(g)] for g in rep.gammas]
    for _ in range(draw(st.integers(0, 3))):
        perm, vals = forms[draw(st.integers(0, rep.d - 1))]
        r, s = draw(st.integers(0, rep.N - 1)), draw(st.integers(0, rep.N - 1))
        kind = draw(st.sampled_from(("sign", "value", "permutation")))
        if kind == "sign":
            vals[r] = -vals[r]
        elif kind == "value":
            vals[r] = draw(entry)
        else:
            perm[r], perm[s] = perm[s], perm[r]
    return CliffordRep(rep.d, tuple(_signed_permutation_matrix(p, v) for p, v in forms))


@settings(max_examples=150, deadline=None)
@given(rep=signed_permutation_stacks())
def test_signed_permutation_stacks_have_the_dense_residuals(rep):
    assert all(clifford._signed_permutation(g) is not None for g in rep.gammas)
    assert_violations_match_dense(rep)


def _zero_row(n):
    g = np.eye(n, dtype=complex)
    g[0, 0] = 0
    return g


def _two_in_one_column(n):
    # One nonzero in each row, but rows 0 and n - 1 share column n - 1.
    g = np.eye(n, dtype=complex)
    g[0, 0], g[0, n - 1] = 0, 1j
    return g


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("broken", [_zero_row, _two_in_one_column])
def test_a_stack_that_is_not_a_signed_permutation_takes_the_dense_products(broken, n):
    level = {2: 3, 4: 5, 16: 9}[n]
    rep = build_rep(level)
    rep = CliffordRep(level, (rep.gammas[0], broken(n)) + rep.gammas[2:])
    assert clifford._signed_permutation(rep.gammas[1]) is None
    with mock.patch.object(clifford, "_permutation_residuals", side_effect=AssertionError):
        assert_violations_match_dense(rep)


def test_generators_of_size_zero_have_the_dense_residuals():
    rep = CliffordRep(2, (np.zeros((0, 0)),) * 2)
    assert clifford._signed_permutation(rep.gammas[0]) is not None
    assert_violations_match_dense(rep)
    assert [v.kind for v in verify_rep(rep).violations] == ["dimension"]


def test_violations_before_a_wrong_shape_keep_their_order():
    # A wrong shape is refused where the generators are built, before any
    # relation is checked; with the shape mended the violations keep their order.
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with mock.patch.object(clifford, "_relation_violations", side_effect=AssertionError), \
            pytest.raises(ModelFormatError, match=re.escape("generator 3 has shape (3, 3)")):
        verify_rep(CliffordRep(3, (SIGMA_1, bad, np.eye(3))))
    rep = CliffordRep(3, (SIGMA_1, bad, SIGMA_3))
    kinds = ["hermiticity", "unitarity", "anti-commutation"]
    assert [v.kind for v in verify_rep(rep).violations] == kinds
    assert_violations_match_dense(rep)


def fft_mixed(d):
    """build_rep(d) conjugated by the unitary discrete Fourier transform."""
    rep = build_rep(d)
    u = np.fft.fft(np.eye(rep.N)) / np.sqrt(rep.N)
    return CliffordRep(d, tuple(u @ g @ dagger(u) for g in rep.gammas))


@pytest.mark.parametrize("d", [3, 8, 13])
def test_a_representation_mixed_by_a_dense_unitary_takes_the_dense_products(d):
    rep = fft_mixed(d)
    payload = rep.to_payload()
    with mock.patch.object(clifford, "_permutation_residuals", side_effect=AssertionError):
        assert verify_rep(rep).ok
        assert_violations_match_dense(rep)
        assert CliffordRep.from_payload(payload).handedness == rep.handedness
        for (i, j), message in (((0, 1), "hermiticity (generator 1), residual 1e-09"),
                                ((0, 0), "unitarity (generator 1 squared), residual 2e-09")):
            broken = copy.deepcopy(payload)
            broken["gammas"][0][i][j][0] += 1e-9
            with pytest.raises(InconsistentRepresentationError,
                               match=re.escape(f"not a Clifford representation: {message}")):
                CliffordRep.from_payload(broken)


def scaled(rep, factor=1e200):
    return CliffordRep(rep.d, tuple(factor * g for g in rep.gammas))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "rep", [scaled(build_rep(2)), scaled(build_rep(3)), scaled(fft_mixed(4)), scaled(fft_mixed(5))],
    ids=["d2", "d3", "d4-mixed", "d5-mixed"],
)
def test_products_that_overflow_are_refused_without_a_warning(rep):
    # Finite entries of 1e200 square to inf, and inf - inf is NaN, on the
    # signed-permutation and the dense path alike: a NaN residual is not at
    # most the tolerance, so it is a violation.
    report = verify_rep(rep)
    assert not report.ok
    anti = [v.residual for v in report.violations if v.kind == "anti-commutation"]
    assert len(anti) == rep.d * (rep.d - 1) // 2
    assert all(math.isnan(r) for r in anti)
    if rep.d % 2:
        with pytest.raises(KgenError):
            rep.to_payload()
    else:
        with pytest.raises(InconsistentRepresentationError, match="not a Clifford representation"):
            grading_of(rep)
