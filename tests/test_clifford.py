"""Clifford representation construction, validation and handedness."""

from functools import reduce

import numpy as np
import pytest

from kgen.clifford import (
    LEFT,
    RIGHT,
    CliffordRep,
    build_rep,
    extend,
    flip_first,
    grading_of,
    handedness_of,
    verify_rep,
)
from kgen.errors import InconsistentRepresentationError, NotIrreducibleError

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
    triple = CliffordRep(d=3, gammas=(SIGMA_1, SIGMA_2, SIGMA_3), handedness=None)
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
        trunc = CliffordRep(d=d_odd - 1, gammas=rep.gammas[: d_odd - 1], handedness=None)
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
    rep = CliffordRep(d=3, gammas=(SIGMA_1, SIGMA_1, SIGMA_3), handedness=None)
    with pytest.raises(NotIrreducibleError):
        handedness_of(rep)


def test_verify_rep_detects_anticommutation_failure():
    rep = CliffordRep(d=2, gammas=(SIGMA_1, SIGMA_1), handedness=None)
    report = verify_rep(rep)
    kinds = {v.kind: v for v in report.violations}
    assert "anti-commutation" in kinds
    assert kinds["anti-commutation"].residual == 2.0


def test_verify_rep_detects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    rep = CliffordRep(d=2, gammas=(bad, SIGMA_2), handedness=None)
    report = verify_rep(rep)
    kinds = {v.kind: v for v in report.violations}
    assert "hermiticity" in kinds
    assert kinds["hermiticity"].residual == 1.0


@pytest.mark.parametrize(
    "d, gammas, kind, detail",
    [
        (1, (SIGMA_1,), "dimension", "N = 2, expected 1"),
        (2, (SIGMA_1, np.eye(3)), "shape", "generator 2 has shape (3, 3)"),
    ],
    ids=["dimension", "shape"],
)
def test_verify_rep_detects_wrong_sizes(d, gammas, kind, detail):
    report = verify_rep(CliffordRep(d=d, gammas=gammas, handedness=None))
    kinds = {v.kind: v for v in report.violations}
    assert kinds[kind].detail == detail


def test_verify_rep_detects_wrong_label():
    rep = CliffordRep(d=3, gammas=(SIGMA_1, SIGMA_2, SIGMA_3), handedness=LEFT)
    report = verify_rep(rep)
    assert any(v.kind == "handedness-label" for v in report.violations)


def test_build_rep_argument_validation():
    with pytest.raises(ValueError):
        build_rep(0)
    with pytest.raises(ValueError):
        build_rep(14)
    with pytest.raises(ValueError):
        build_rep(3, "sideways")


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
    rep4 = CliffordRep(d=4, gammas=rep5.gammas[:4], handedness=None)
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
    grading = grading_of(CliffordRep(2, (SIGMA_2, SIGMA_3), None))
    assert np.array_equal(grading.matrix, SIGMA_1)
    assert grading.phase == 1j


def test_grading_requires_even():
    with pytest.raises(ValueError):
        grading_of(build_rep(3, LEFT))


def test_grading_rejects_unphaseable_product():
    phase = np.exp(1j * np.pi / 4)
    weird = np.array([[0, phase], [phase.conjugate(), 0]], dtype=complex)
    rep = CliffordRep(d=2, gammas=(SIGMA_1, weird), handedness=None)
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
