"""Band models: loading, gap scans, crossing detection and charging."""

import json
import tracemalloc

import numpy as np
import pytest

from kgen import _linalg, bandscan, charge, clifford, errors, generators
from kgen.bandscan import (
    BandModel,
    charge_crossing,
    find_crossings,
    gap_at,
    load_model,
    min_gap,
    save_model,
    scan,
)
from kgen.charge import chern_sign_weyl
from kgen.errors import (
    ChiralSymmetryError,
    EnclosureInvalidError,
    HermiticityError,
    MissingChiralError,
    ModelFormatError,
)
from kgen.fields import MatrixPolyField

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def weyl_model():
    """Three-dimensional point crossing, terms x_j -> sigma_j."""
    terms = {(1, 0, 0): SIGMA_1, (0, 1, 0): SIGMA_2, (0, 0, 1): SIGMA_3}
    return BandModel(MatrixPolyField(3, 2, terms), name="weyl")


def two_weyl_model(b=0.5):
    """h = (x3^2 - b^2) sigma_3 + x1 sigma_1 + x2 sigma_2, crossings at (0, 0, +-b)."""
    terms = {
        (1, 0, 0): SIGMA_1,
        (0, 1, 0): SIGMA_2,
        (0, 0, 2): SIGMA_3,
        (0, 0, 0): -(b**2) * SIGMA_3,
    }
    return BandModel(MatrixPolyField(3, 2, terms), name="two-weyl")


def chiral_dirac_model():
    terms = {(1, 0): SIGMA_1, (0, 1): SIGMA_2}
    return BandModel(
        MatrixPolyField(2, 2, terms),
        chiral=SIGMA_3,
        name="dirac-2d",
    )


def massive_dirac_model(m=0.1):
    terms = {(1, 0): SIGMA_1, (0, 1): SIGMA_2, (0, 0): m * SIGMA_3}
    return BandModel(MatrixPolyField(2, 2, terms), name="massive")


def close_pair_chiral_model():
    """((x1 - 0.61)^2 - 0.05^2) sigma_1 + x2 sigma_2 with J = sigma_3: chiral
    crossings at (0.56, 0) and (0.66, 0), closer than the default grid spacing."""
    terms = {
        (2, 0): SIGMA_1,
        (1, 0): -1.22 * SIGMA_1,
        (0, 0): (0.61**2 - 0.05**2) * SIGMA_1,
        (0, 1): SIGMA_2,
    }
    return BandModel(MatrixPolyField(2, 2, terms), chiral=SIGMA_3)


# -- validation ----------------------------------------------------------------


def test_model_requires_hermitian_coefficients():
    terms = {(1, 0): np.array([[0, 1], [0, 0]], dtype=complex)}
    with pytest.raises(HermiticityError):
        BandModel(MatrixPolyField(2, 2, terms))


def rotated(terms, scale, chiral=None, seed=3):
    """Model with ``scale`` times ``terms``, conjugated by a seeded random unitary."""
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    dim = len(next(iter(terms)))
    field = MatrixPolyField(dim, 2, {a: scale * m for a, m in terms.items()})
    return BandModel(
        field.conjugated_by(w), chiral=None if chiral is None else w.conj().T @ chiral @ w
    )


CHIRAL_PAIR = {(2, 0): SIGMA_1, (0, 0): -0.25 * SIGMA_1, (0, 1): SIGMA_2}


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e4, 1e6])
def test_rotated_models_load_and_scan_at_any_scale(scale):
    # The coefficient checks are relative to the largest entry, so rescaling
    # a valid model never turns its rotation rounding into a refusal.
    pair = scan(rotated(CHIRAL_PAIR, scale, chiral=SIGMA_3), [(-1, 1)] * 2)
    reference = scan(BandModel(MatrixPolyField(2, 2, CHIRAL_PAIR), chiral=SIGMA_3),
                     [(-1, 1)] * 2)
    assert [r.charge.charge for r in pair] == [r.charge.charge for r in reference]
    assert sorted(r.charge.charge for r in pair) == [-1, 1]
    assert np.allclose([r.location for r in pair], [(-0.5, 0.0), (0.5, 0.0)], atol=1e-6)

    (weyl,) = scan(rotated(dict(weyl_model().terms), scale), [(-1, 1)] * 3)
    assert weyl.error is None
    assert weyl.charge.charge == charge_crossing(weyl_model(), [0, 0, 0], 0.5).charge.charge


def test_small_chiral_enclosure_away_from_the_origin_is_charged():
    # ((x1 - 0.61)^2 - 0.05^2) sigma_1 + x2 sigma_2 on a circle of radius 1e-5
    # about x1 = 0.66: h(0.66, 0) is rotation rounding far above 1e-12 of the
    # entries there.  The chiral block is taken from the model's own
    # coefficients, so the charge still computes.
    model = rotated(dict(close_pair_chiral_model().terms), 1.0, chiral=SIGMA_3)
    big = charge_crossing(model, [0.66, 0.0], 0.02).charge.charge
    assert abs(big) == 1
    assert charge_crossing(model, [0.66, 0.0], 1e-5).charge.charge == big


WEYL_AT_2_3 = {(2, 0, 0): SIGMA_1, (0, 0, 0): -(2.3**2) * SIGMA_1, (0, 1, 0): SIGMA_2,
               (0, 0, 1): SIGMA_3}


@pytest.mark.parametrize("radius", [1e-3, 1e-4, 1e-6])
def test_small_weyl_enclosure_away_from_the_origin_is_charged(radius):
    # On a small enclosure the rotated model's entries are of order the radius,
    # and h(2.3, 0, 0) cancels terms of order 2.3^2 to rounding; Hermiticity is
    # judged on the model's coefficients, not on the enclosure.
    model = rotated(WEYL_AT_2_3, 1.0, seed=0)
    result = charge_crossing(model, [2.3, 0.0, 0.0], radius, resolution=16)
    assert abs(result.charge.charge) == 1


def test_scan_charges_close_crossings_away_from_the_origin():
    # Weyl points at 10 -/+ 6e-4, charged in enclosures of radius 6e-4: each
    # gets a report with a charge instead of the scan raising.
    c, b = 10.0, 6e-4
    k = 1 / (2 * b)
    terms = {(2, 0, 0): k * SIGMA_1, (1, 0, 0): -2 * c * k * SIGMA_1,
             (0, 0, 0): (c * c - b * b) * k * SIGMA_1, (0, 1, 0): SIGMA_2, (0, 0, 1): SIGMA_3}
    reports = scan(rotated(terms, 1.0), [(c - 2e-3, c + 2e-3), (-1e-3, 1e-3), (-1e-3, 1e-3)])
    assert [r.error for r in reports] == [None, None]
    assert np.allclose([r.location[0] for r in reports], [c - b, c + b])
    assert sorted(r.charge.charge for r in reports) == [-1, 1]


def test_relative_coefficient_defects_refused_at_small_scale():
    # A defect of 1e-7 relative to the largest entry is 1e-13 absolute at
    # scale 1e-6: far below the entries, but not rounding.
    scale, defect = 1e-6, 1e-7
    base = {(1, 0): scale * SIGMA_1, (0, 1): scale * SIGMA_2}
    massive = {**base, (0, 0): scale * defect * SIGMA_3}
    with pytest.raises(ChiralSymmetryError, match=r"\[\(0, 0\)\]"):
        BandModel(MatrixPolyField(2, 2, massive), chiral=SIGMA_3)
    with pytest.raises(errors.NotChiralError, match=r"\[\(0, 0\)\]"):
        generators.chiral_lower_block(MatrixPolyField(2, 2, massive), SIGMA_3)
    skew = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(HermiticityError, match=r"\[\(0, 0\)\]"):
        BandModel(MatrixPolyField(2, 2, {**base, (0, 0): scale * defect * skew}))
    terms = {(1, 0, 0): scale * SIGMA_1, (0, 1, 0): scale * SIGMA_2, (0, 0, 1): scale * SIGMA_3,
             (0, 0, 0): scale * defect * skew}
    with pytest.raises(ValueError, match="self-adjoint"):
        charge.chern_2(MatrixPolyField(3, 2, terms))


def test_model_dimension_guard():
    with pytest.raises(ModelFormatError):
        BandModel(MatrixPolyField(4, 2, {(0, 0, 0, 0): np.eye(2)}))


def test_load_save_round_trip(tmp_path):
    path = tmp_path / "weyl.json"
    save_model(weyl_model(), path)
    model = load_model(path)
    assert model.dimension == 3
    assert model.size == 2
    assert model.name == "weyl"
    for alpha, mat in weyl_model().terms.items():
        assert np.array_equal(model.terms[alpha], mat)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(path)
    # Valid JSON, but past the digit limit of Python's int conversion.
    path.write_text('{"dimension": 1' + "0" * 5000 + "}")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(path)


CHIRAL_PAYLOAD = chiral_dirac_model().to_payload()
ZERO_2X2 = [[[0.0, 0.0]] * 2] * 2


def sigma1_term(one):
    """The x1 term of CHIRAL_PAYLOAD, sigma_1, with its upper 1 written as ``one``."""
    return {"powers": [1, 0], "matrix": [[[0.0, 0.0], [one, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param({"dimension": 2, "size": 2}, "missing the 'terms' key", id="missing-terms"),
        pytest.param(
            {"dimension": 2, "size": 2, "terms": [{"powers": [1], "matrix": [[[0.0, 0.0]]]}]},
            "bad multi-index",
            id="bad-multi-index",
        ),
        pytest.param([1, 2, 3], "must contain a JSON object", id="not-an-object"),
        pytest.param(None, "cannot read model file", id="unreadable-path"),
        pytest.param({**CHIRAL_PAYLOAD, "dimension": "2"}, "must be integers", id="str-dimension"),
        pytest.param({**CHIRAL_PAYLOAD, "size": 2.0}, "must be integers", id="float-size"),
        pytest.param({**CHIRAL_PAYLOAD, "size": True}, "must be integers", id="bool-size"),
        pytest.param(
            {**CHIRAL_PAYLOAD, "terms": [{"powers": [True, False], "matrix": ZERO_2X2}]},
            "bad multi-index",
            id="bool-powers",
        ),
        pytest.param({**CHIRAL_PAYLOAD, "fermi": "zero"}, "'fermi' must be a number", id="fermi"),
        # float() would read these two as 1.0 and 0.25, and the next two entries as 1.0.
        pytest.param(
            {**CHIRAL_PAYLOAD, "fermi": True}, "'fermi' must be a number", id="bool-fermi"
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "fermi": "0.25"}, "'fermi' must be a number", id="str-fermi"
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "terms": [CHIRAL_PAYLOAD["terms"][0], sigma1_term(True)]},
            "malformed complex matrix",
            id="bool-entry",
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "terms": [CHIRAL_PAYLOAD["terms"][0], sigma1_term("1")]},
            "malformed complex matrix",
            id="str-entry",
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "terms": [CHIRAL_PAYLOAD["terms"][0], sigma1_term(10**400)]},
            "malformed complex matrix: int too large",
            id="huge-int-entry",
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "fermi": 10**400}, "'fermi' is an integer beyond float range",
            id="huge-int-fermi",
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "terms": [{"powers": [10**400, 0], "matrix": ZERO_2X2}]},
            "powers must fit a signed 64-bit integer",
            id="huge-int-power",
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "terms": [{"powers": [0, 2**63], "matrix": ZERO_2X2}]},
            "powers must fit a signed 64-bit integer",
            id="power-2^63",
        ),
        pytest.param({**CHIRAL_PAYLOAD, "terms": {}}, "'terms' must be a list", id="terms-dict"),
        pytest.param(
            {**CHIRAL_PAYLOAD, "terms": [{"matrix": ZERO_2X2}]},
            "needs 'powers' and 'matrix'",
            id="no-powers",
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "terms": [{"powers": [1, 0]}]},
            "needs 'powers' and 'matrix'",
            id="no-matrix",
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "terms": [{"powers": [1, 0], "matrix": [[[0.0, 0.0], "x"]]}]},
            "malformed complex matrix",
            id="malformed-matrix",
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "terms": [{"powers": [1, 0], "matrix": ZERO_2X2[:1]}]},
            "must be square",
            id="non-square-matrix",
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "terms": [{"powers": [1, 0], "matrix": ZERO_2X2}] * 2},
            "duplicate multi-index",
            id="duplicate-multi-index",
        ),
        pytest.param(
            {**CHIRAL_PAYLOAD, "chiral": [[[1.0, 0.0]]]}, "chiral matrix has shape", id="chiral-1x1"
        ),
        pytest.param({**CHIRAL_PAYLOAD, "size": 0}, "must be >= 1", id="zero-size"),
        pytest.param({**CHIRAL_PAYLOAD, "size": -1}, "must be >= 1", id="negative-size"),
        pytest.param(
            {**CHIRAL_PAYLOAD, "chiral": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
            "chiral matrix is not Hermitian",
            id="non-hermitian-chiral",
        ),
    ],
)
def test_load_rejects_schema_violations(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    if payload is not None:  # otherwise the path does not exist
        path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


def test_two_dimensional_model_needs_equal_chiral_eigenspaces():
    # Both terms anti-commute with J = diag(1, 1, -1), but the chiral block of
    # a 2 + 1 split is 1 x 2, so no crossing of the model could be charged.
    j = np.diag([1.0, 1.0, -1.0]).astype(complex)
    a, b = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
    a[0, 2] = a[2, 0] = b[1, 2] = b[2, 1] = 1.0
    field = MatrixPolyField(2, 3, {(1, 0): a, (0, 1): b})
    with pytest.raises(ChiralSymmetryError, match="eigenspaces have sizes 2 and 1"):
        BandModel(field, chiral=j)


@pytest.mark.parametrize("fermi", [0.5, -1e-300])
def test_a_two_dimensional_chiral_model_is_refused_off_energy_zero(fermi):
    # Chiral symmetry pins 2-D crossings at energy 0; at fermi 0.5 this model
    # has a Fermi circle |x| = 0.5, not point crossings.
    field = chiral_dirac_model().field
    with pytest.raises(ChiralSymmetryError, match=f"fermi must be 0, got {fermi}"):
        BandModel(field, chiral=SIGMA_3, fermi=fermi)
    payload = {**chiral_dirac_model().to_payload(), "fermi": fermi}
    with pytest.raises(ChiralSymmetryError, match="crossings at energy 0"):
        BandModel.from_payload(payload)
    # Without a chiral matrix, or at -0.0, the model loads as before.
    assert BandModel(field, fermi=fermi).fermi == fermi
    assert BandModel(field, chiral=SIGMA_3, fermi=-0.0).chiral_block.size == 1


DIRAC_TERMS = {(1, 0): SIGMA_1, (0, 1): SIGMA_2}
# [[0, 0, 1], [0, 0, 0], [1, 0, 0]] anti-commutes with diag(1, 1, -1) and with
# diag(1, 0, -1); so does [[0, 0, 0], [0, 0, 1], [0, 1, 0]] with the first.
CORNERS = np.zeros((3, 3), dtype=complex)
CORNERS[0, 2] = CORNERS[2, 0] = 1.0
MIDDLE = np.zeros((3, 3), dtype=complex)
MIDDLE[1, 2] = MIDDLE[2, 1] = 1.0


@pytest.mark.parametrize(
    "terms, j, message",
    [
        ({(1, 0): CORNERS, (0, 1): MIDDLE}, np.diag([1.0, 1.0, -1.0]), "eigenspaces have sizes 2 and 1"),
        ({(1, 0): CORNERS}, np.diag([1.0, 0.0, -1.0]), r"eigenvalues \[-1.0, 0.0, 1.0\], not all"),
        (DIRAC_TERMS, np.zeros((2, 2)), r"eigenvalues \[0.0, 0.0\], not all \+-1"),
        (DIRAC_TERMS, np.full((2, 2), np.nan), "chiral matrix is not finite"),
        (DIRAC_TERMS, np.diag([1.0, -np.inf]), "chiral matrix is not finite"),
        (DIRAC_TERMS, np.array([[1.0, 1.0], [0.0, -1.0]]), "chiral matrix is not Hermitian"),
        (DIRAC_TERMS, 0.5 * SIGMA_3, r"eigenvalues \[-0.5, 0.5\], not all \+-1"),
        ({**DIRAC_TERMS, (0, 0): 0.1 * SIGMA_3}, SIGMA_3, r"\[\(0, 0\)\] do not anti-commute"),
        # 5e-11 defect: above the coefficient tolerance, 1e-12 of the largest entry.
        ({**DIRAC_TERMS, (0, 0): 2.5e-11 * SIGMA_3}, SIGMA_3, r"\[\(0, 0\)\] do not anti-commute"),
        (DIRAC_TERMS, np.array([[1.0, 1e308], [-1e308, -1.0]]), "chiral matrix is not Hermitian"),
    ],
    ids=["unequal-eigenspaces", "kernel", "zero", "nan", "inf", "not-hermitian", "half",
         "mass", "defect", "overflowing-residual"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_model_and_chiral_block_refuse_a_chiral_matrix_alike(terms, j, message):
    # One check of the chiral matrix: loading a model and extracting the
    # chiral block refuse each J with the same message.
    field = MatrixPolyField(2, len(j), terms)
    with pytest.raises(ChiralSymmetryError, match=message) as loaded:
        BandModel(field, chiral=j)
    with pytest.raises(errors.NotChiralError) as extracted:
        generators.chiral_lower_block(field, j)
    assert str(extracted.value) == str(loaded.value)


def test_a_two_dimensional_scan_checks_its_chiral_matrix_once(monkeypatch):
    # The chiral block is built with the model, so neither the scan nor its
    # two crossings check the chiral matrix again.
    calls = []
    check = generators.grading_eigenvectors
    monkeypatch.setattr(
        generators, "grading_eigenvectors", lambda *args: calls.append(args) or check(*args)
    )
    terms = {(2, 0): SIGMA_1, (0, 0): -0.25 * SIGMA_1, (0, 1): SIGMA_2}
    model = BandModel(MatrixPolyField(2, 2, terms), chiral=SIGMA_3)
    reports = scan(model, [(-1, 1)] * 2)
    assert [r.classification for r in reports] == ["dirac-chiral"] * 2
    assert len(calls) == 1


@pytest.mark.parametrize("c", [1e9, 1e15, 1e16, 1e18])
def test_the_fermi_level_cancels_before_the_model_is_evaluated(c):
    # w + c I at Fermi level c is w at Fermi level 0.  Folded into the constant
    # coefficient, c cancels exactly; subtracted from evaluated entries, it
    # rounded them at its own scale first.
    w = generators.weyl_field(2, clifford.LEFT)
    shifted = w.plus(MatrixPolyField(3, 2, {(0, 0, 0): c * np.eye(2)}))
    expected = charge.chern_2(w)
    assert charge.chern_2(shifted, fermi=c).convergence_pair == expected.convergence_pair
    [report] = scan(BandModel(shifted, fermi=c), [(-1, 1)] * 3)
    assert report.error is None and np.linalg.norm(report.location) < 1e-6
    assert report.charge.converged and report.charge.charge == expected.charge


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_fermi_level_that_overflows_the_constant_coefficient_is_refused():
    terms = {(1, 0, 0): SIGMA_1, (0, 0, 0): 1e308 * np.eye(2)}
    field = MatrixPolyField(3, 2, terms)
    with pytest.raises(ModelFormatError, match=r"coefficient of \(0, 0, 0\) is not finite"):
        BandModel(field, fermi=-1e308)
    with pytest.raises(ModelFormatError, match=r"coefficient of \(0, 0, 0\) is not finite"):
        charge.chern_2(field, fermi=-1e308)


@pytest.mark.parametrize(
    "where", ["coefficient", "chiral", "fermi", "built-coefficient", "built-chiral"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_load_rejects_non_finite_values(tmp_path, where, value):
    # A model built in Python is refused too, so save_model never writes NaN:
    # a coefficient by the field's constructor, the chiral matrix by the model's.
    if where.startswith("built"):
        coefficient, chiral = SIGMA_1.copy(), SIGMA_3.copy()
        (coefficient if where == "built-coefficient" else chiral)[1, 1] = value
        with pytest.raises(ModelFormatError, match="finite"):
            field = MatrixPolyField(2, 2, {(1, 0): coefficient, (0, 1): SIGMA_2})
            BandModel(field, chiral=chiral)
        return
    payload = chiral_dirac_model().to_payload()
    if where == "coefficient":
        payload["terms"][0]["matrix"][0][1][0] = value
    elif where == "chiral":
        payload["chiral"][1][1][1] = value
    else:
        payload["fermi"] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))  # json writes NaN / Infinity tokens
    with pytest.raises(ModelFormatError, match="finite"):
        load_model(path)


@pytest.mark.parametrize(
    "key, text", [("name", "NaN"), ("comment", "Infinity"), ("comment", "[Infinity]"),
                  ("name", "3")],
)
def test_load_rejects_metadata_that_is_not_a_string(tmp_path, key, text):
    # Python's json reads NaN and Infinity, which save_model could not write
    # back as JSON; a name or comment is a string or null.
    payload = json.dumps({**weyl_model().to_payload(), key: None})
    path = tmp_path / "model.json"
    path.write_text(payload.replace(f'"{key}": null', f'"{key}": {text}'))
    with pytest.raises(ModelFormatError, match=f"'{key}' must be a string or null"):
        load_model(path)


def test_chiral_model_round_trip(tmp_path):
    path = tmp_path / "dirac.json"
    save_model(chiral_dirac_model(), path)
    model = load_model(path)
    assert np.array_equal(model.chiral, SIGMA_3)


# -- gap -------------------------------------------------------------------------


def test_gap_at_crossing_and_sphere():
    model = weyl_model()
    assert gap_at(model, [0.0, 0.0, 0.0]) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(3)
        assert abs(gap_at(model, x) - np.linalg.norm(x)) < 1e-13


def test_gap_massive_dirac():
    model = massive_dirac_model(0.1)
    assert abs(gap_at(model, [0.0, 0.0]) - 0.1) < 1e-15
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(2)
        expected = np.sqrt(np.dot(x, x) + 0.01)
        assert abs(gap_at(model, x) - expected) < 1e-13


def test_min_gap_equals_mass():
    value, loc = min_gap(massive_dirac_model(0.1), [(-1, 1), (-1, 1)])
    assert abs(value - 0.1) < 1e-9
    assert np.linalg.norm(loc) < 1e-4


# -- crossing search ----------------------------------------------------------------


def test_find_single_weyl_crossing():
    points = find_crossings(weyl_model(), [(-1, 1)] * 3)
    assert len(points) == 1
    assert np.linalg.norm(points[0]) < 1e-6


def test_find_two_weyl_crossings():
    points = find_crossings(two_weyl_model(), [(-1, 1)] * 3)
    assert len(points) == 2
    expected = [np.array([0, 0, -0.5]), np.array([0, 0, 0.5])]
    for found, want in zip(points, expected):
        assert np.linalg.norm(found - want) < 1e-5


def test_find_crossings_empty_for_gapped_model():
    assert find_crossings(massive_dirac_model(), [(-1, 1)] * 2) == []


def test_find_crossings_box_excluding_origin():
    points = find_crossings(weyl_model(), [(0.2, 1.0)] * 3)
    assert points == []


def test_find_crossings_coarse_n_guard():
    with pytest.raises(ValueError):
        find_crossings(weyl_model(), [(-1, 1)] * 3, coarse_n=4)


# -- charging -------------------------------------------------------------------------


def test_charge_weyl_crossing_matches_generator():
    report = charge_crossing(weyl_model(), [0.0, 0.0, 0.0], radius=0.5)
    assert report.classification == "weyl"
    # Radial scaling invariance: the enclosure charge equals the charge of the
    # same matrices restricted to the unit sphere.
    direct = charge.chern_2(
        MatrixPolyField(3, 2, dict(weyl_model().terms))
    )
    assert report.charge.charge == direct.charge
    assert abs(report.charge.charge) == 1


def test_exported_generator_model_reproduces_charge(tmp_path):
    field = generators.weyl_field(2, clifford.build_rep(3, clifford.LEFT))
    model = BandModel(field, name="generator-export")
    path = tmp_path / "generator.json"
    save_model(model, path)
    loaded = load_model(path)
    report = charge_crossing(loaded, [0.0, 0.0, 0.0], radius=1.0)
    assert report.charge.charge == chern_sign_weyl()


def test_two_weyl_charges_cancel():
    model = two_weyl_model()
    plus = charge_crossing(model, [0.0, 0.0, 0.5], radius=0.4)
    minus = charge_crossing(model, [0.0, 0.0, -0.5], radius=0.4)
    assert abs(plus.charge.charge) == 1
    assert plus.charge.charge + minus.charge.charge == 0


def test_total_charge_on_large_sphere_is_zero():
    report = charge_crossing(two_weyl_model(), [0.0, 0.0, 0.0], radius=0.9)
    assert report.charge.charge == 0
    assert report.charge.residual < 0.01
    assert report.classification == "trivial"


@pytest.mark.parametrize(
    "model, point", [(weyl_model, [0.0, 0.0, 0.0]), (chiral_dirac_model, [0.0, 0.0])]
)
def test_charge_crossing_refuses_zero_resolution(model, point):
    # Only None selects the default resolution.
    with pytest.raises(ValueError, match="resolution must be an integer >= 4"):
        charge_crossing(model(), point, radius=0.5, resolution=0)
    default = charge_crossing(model(), point, radius=0.5)
    assert default.charge.resolution == charge.DEFAULT_RESOLUTION[len(point) - 1]
    # A numpy integer is an integer too.
    numpy_16 = charge_crossing(model(), point, radius=0.5, resolution=np.int64(16))
    assert numpy_16 == charge_crossing(model(), point, radius=0.5, resolution=16)


def test_charge_2d_needs_chiral():
    with pytest.raises(MissingChiralError):
        charge_crossing(massive_dirac_model(), [0.0, 0.0], radius=0.5)
    with pytest.raises(MissingChiralError):
        massive_dirac_model().chiral_block


def test_chiral_dirac_winding():
    model = chiral_dirac_model()
    # The charged block is built once per model, not once per crossing.
    assert model.chiral_block is model.chiral_block
    report = charge_crossing(model, [0.0, 0.0], radius=0.5)
    assert report.classification == "dirac-chiral"
    assert abs(report.charge.charge) == 1


def test_enclosures_are_charged_without_recomposing_the_model(monkeypatch):
    # Each enclosure evaluates the model on the moved grid; the recomposed
    # field x -> h(center + radius x) gives the same raws to rounding, through
    # charge_crossing and through the public winding_1 alike.
    weyl, weyl_center = two_weyl_model(), [0.0, 0.0, 0.5]
    dirac, dirac_center = chiral_dirac_model(), [0.1, 0.0]
    block = generators.chiral_lower_block(dirac.field, SIGMA_3)
    expected = [
        charge.chern_2(weyl.field.affine_pullback(weyl_center, 0.4)),
        charge.winding_1(block.affine_pullback(dirac_center, 0.4)),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("enclosures must not recompose the model")

    monkeypatch.setattr(MatrixPolyField, "affine_pullback", refuse)
    results = [charge_crossing(weyl, weyl_center, 0.4).charge,
               charge_crossing(dirac, dirac_center, 0.4).charge,
               charge.winding_1(block, center=dirac_center, radius=0.4)]
    for result, reference in zip(results, expected + expected[1:]):
        assert abs(result.charge) == 1 and result.charge == reference.charge
        assert np.allclose(result.convergence_pair, reference.convergence_pair, rtol=0, atol=1e-12)


def test_high_degree_enclosure_is_charged_in_bounded_memory():
    # x1 s1 + x2 s2 + x3 s3 + 0.01 (x1 x2 x3)^8 s3 with the standard Pauli
    # matrices (s2 = -SIGMA_2): recomposing it about the centre would expand
    # the last monomial into 9^3 terms and peak near 280 MiB.
    terms = {(1, 0, 0): SIGMA_1, (0, 1, 0): -SIGMA_2, (0, 0, 1): SIGMA_3,
             (8, 8, 8): 0.01 * SIGMA_3}
    model = BandModel(MatrixPolyField(3, 2, terms))
    tracemalloc.start()
    try:
        report = charge_crossing(model, [1e-3] * 3, radius=0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.charge.charge, report.charge.converged) == (-1, True)
    assert np.max(np.abs(np.add(report.charge.convergence_pair, 1.0))) <= 1e-12
    assert peak < 48 * 2**20


def test_enclosure_rejects_gapless_sphere():
    # Radius 1.0 sphere around one crossing passes through the other; a node
    # never lands exactly on it, so close the gap explicitly at the center.
    with pytest.raises(EnclosureInvalidError):
        charge_crossing(weyl_model(), [0.0, 0.0, 0.0], radius=1e-9)


def test_enclosure_cutting_a_fermi_surface_is_invalid():
    # At fermi 0.3 the Weyl bands meet the Fermi level on |x| = 0.3, which this
    # sphere cuts: the band count below fermi varies over its nodes.
    model = BandModel(weyl_model().field, fermi=0.3)
    with pytest.raises(
        EnclosureInvalidError,
        match=r"gap closes on the enclosing sphere \(number of bands below fermi varies",
    ):
        charge_crossing(model, [0.3, 0.0, 0.0], radius=0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: charge_crossing(weyl_model(), [0.0, 0.0], 0.5), r"point must have shape \(3,\)"),
        (lambda: bandscan.gap_at(weyl_model(), [0.0, 0.0]), r"point must have shape \(3,\)"),
        (lambda: bandscan.gap_at(weyl_model(), [0.0, np.inf, 0.0]), r"point must be finite"),
        (lambda: bandscan.gap_map(weyl_model(), [(-1, 1)] * 2, 8), r"box must have 3 \(lo, hi\)"),
    ],
    ids=["point", "gap_at-point", "gap_at-finite", "box"],
)
def test_wrong_number_of_coordinates_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_chiral_protection_under_perturbations():
    rng = np.random.default_rng(7)
    base = chiral_dirac_model()
    reference = charge_crossing(base, [0.0, 0.0], radius=0.6).charge.charge
    for _ in range(10):
        c = rng.uniform(-0.3, 0.3, 2)
        terms = dict(base.terms)
        terms[(0, 0)] = terms.get((0, 0), 0) + c[0] * SIGMA_1 + c[1] * SIGMA_2
        perturbed = BandModel(
            MatrixPolyField(2, 2, terms), chiral=SIGMA_3
        )
        report = charge_crossing(perturbed, [0.0, 0.0], radius=0.6)
        assert report.charge.charge == reference


def test_weyl_stability_constant_perturbation():
    rng = np.random.default_rng(8)
    sigmas = [SIGMA_1, SIGMA_2, SIGMA_3]
    expected = charge_crossing(weyl_model(), [0.0, 0.0, 0.0], radius=0.5).charge.charge
    for j in range(3):
        t = float(rng.uniform(-0.3, 0.3))
        terms = dict(weyl_model().terms)
        terms[(0, 0, 0)] = t * sigmas[j]
        model = BandModel(MatrixPolyField(3, 2, terms))
        points = find_crossings(model, [(-1, 1)] * 3)
        assert len(points) == 1
        # Crossing moved off the origin but the charge is unchanged.
        assert abs(np.linalg.norm(points[0]) - abs(t)) < 1e-5
        report = charge_crossing(model, points[0], radius=0.4)
        assert report.charge.charge == expected


# -- scan -----------------------------------------------------------------------------


def test_scan_two_weyl():
    reports = scan(two_weyl_model(), [(-1, 1)] * 3)
    assert len(reports) == 2
    charges = [r.charge.charge for r in reports]
    assert sorted(abs(c) for c in charges) == [1, 1]
    assert sum(charges) == 0
    assert all(r.classification == "weyl" for r in reports)
    assert all(r.error is None for r in reports)
    locations = [r.location for r in reports]
    assert locations == sorted(locations)


def test_scan_gapped_model_empty():
    assert scan(massive_dirac_model(), [(-1, 1)] * 2) == []


def test_scan_single_crossing_uses_capped_radius():
    reports = scan(weyl_model(), [(-1, 1)] * 3)
    assert len(reports) == 1
    assert reports[0].enclosure_radius == bandscan.MAX_RADIUS
    assert reports[0].radius_capped


def constant_gapped_model():
    terms = {(0, 0, 0): SIGMA_3}
    return BandModel(MatrixPolyField(3, 2, terms), name="flat")


def test_flat_gap_starts_one_search():
    assert len(bandscan._coarse_minima(np.zeros((16, 16, 16)))) == 1
    assert scan(constant_gapped_model(), [(-1, 1)] * 3) == []


def coarse_minima_reference(gaps):
    """The padded-and-rolled form ``_coarse_minima`` used to take, kept as the reference."""
    padded = np.pad(gaps, 1, mode="constant", constant_values=np.inf)
    is_min = np.ones_like(gaps, dtype=bool)
    core = tuple(slice(1, -1) for _ in range(gaps.ndim))
    for axis in range(gaps.ndim):
        is_min &= gaps < np.roll(padded, 1, axis=axis)[core]
        is_min &= gaps <= np.roll(padded, -1, axis=axis)[core]
    return list(zip(*np.nonzero(is_min)))


@pytest.mark.parametrize("shape", [(9, 9), (1, 7), (8, 5, 6), (5, 1, 4)])
@pytest.mark.parametrize("seed", range(4))
def test_coarse_minima_match_the_padded_form(shape, seed):
    rng = np.random.default_rng(seed)
    cases = [
        rng.integers(0, 3, shape).astype(float),  # ties and plateaus
        rng.uniform(0.0, 1.0, shape),
        np.full(shape, 0.25),
        np.where(rng.uniform(size=shape) < 0.2, np.inf, rng.integers(0, 2, shape).astype(float)),
    ]
    slabs = rng.uniform(0.0, 1.0, shape)
    slabs[shape[0] // 2] = 0.0  # a constant leading-axis slab
    slabs[..., -1] = slabs.min()  # and a constant trailing one
    cases.append(slabs)
    for gaps in cases:
        assert bandscan._coarse_minima(gaps) == coarse_minima_reference(gaps)


def compass_reference(func, start, step, box, max_iter=200, min_step=1e-12):
    """Per-point compass descent: poll +x0, -x0, +x1, ... one at a time and
    take the first strict improvement over the best so far."""
    lo, hi = np.array(box).T
    x = np.clip(np.asarray(start, dtype=float), lo, hi)
    fx = func(x[None, :])[0]
    for _ in range(max_iter):
        if step < min_step:
            break
        best_x, best_f = None, fx
        for j in range(x.size):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[j] = min(max(cand[j] + sign * step, lo[j]), hi[j])
                fc = func(cand[None, :])[0]
                if fc < best_f:
                    best_f, best_x = fc, cand
        if best_x is None:
            step *= 0.5
        else:
            x, fx = best_x, best_f
    return x, fx


@pytest.mark.parametrize(
    "start", [(0.0, 0.0, 0.0), (0.0, 0.0, 0.9), (0.3, -0.3, 0.2), (-1.0, 1.0, -1.0)]
)
def test_pattern_search_matches_per_point_polling(start):
    model = two_weyl_model()
    box = [(-1.0, 1.0)] * 3

    def gaps(points):
        return bandscan._gap_batch(model, points)

    x, fx = bandscan._pattern_search(gaps, start, 0.25, box)
    ref_x, ref_fx = compass_reference(gaps, start, 0.25, box)
    assert x.tolist() == ref_x.tolist()
    assert fx == ref_fx


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "size, x, overflow",
    [(2, 2.5, "values"), (2, 1e10, "values"), (3, 2.5, "eigenvalues"), (3, 1e10, "values")],
)
def test_a_batch_names_its_first_point_where_the_gap_is_not_finite(size, x, overflow):
    # 1e308 x1 R for a reflection R (a Pauli sector for size 2, eigvalsh for 3).
    # At x1 = 2.5 the 3 x 3 values (at most 1.67e308) are finite, but the
    # eigenvalues +-2.5e308 are not: the gap is refused all the same.
    reflection = SIGMA_1 if size == 2 else np.eye(3) - 2.0 / 3.0 * np.ones((3, 3))
    model = BandModel(MatrixPolyField(3, size, {(1, 0, 0): 1e308 * reflection}))
    assert len(model.field.sectors) == 1
    with np.errstate(over="ignore"):
        values = model.field.evaluate([x, 0.0, 0.0])
    assert np.isfinite(values).all() == (overflow == "eigenvalues")
    points = np.array([[0.5, 0.0, 0.0], [x, 0.0, 0.0], [x / 4, 0.0, 0.0]])
    with pytest.raises(errors.ModelOverflowError, match=rf"gap is not finite at \[{x}, 0.0, 0.0\]"):
        bandscan._gap_batch(model, points)
    assert bandscan._gap_batch(model, points[:1])[0] == pytest.approx(0.5e308, rel=1e-15)


def test_gap_map_rows():
    axes, gaps = bandscan.gap_map(massive_dirac_model(), [(-1, 1)] * 2, 9)
    assert [axis.shape for axis in axes] == [(9,), (9,)]
    assert gaps.shape == (9, 9)
    center = np.unravel_index(np.argmin(np.abs(axes[0])[:, None] + np.abs(axes[1])), gaps.shape)
    assert abs(gaps[center] - 0.1) < 1e-12


def test_gap_map_in_chunks_matches_pointwise_gaps(monkeypatch):
    # 125 points in seven-point chunks: 17 full chunks and a partial last one.
    monkeypatch.setattr(_linalg, "CHUNK", 7)
    model = two_weyl_model()
    axes, gaps = bandscan.gap_map(model, [(-1, 1)] * 3, 5)
    expected = [
        gap_at(model, [axis[i] for axis, i in zip(axes, index)]) for index in np.ndindex(gaps.shape)
    ]
    assert np.max(np.abs(gaps.ravel() - expected)) <= 1e-14


@pytest.mark.parametrize("dim, n", [(3, 256), (2, 4096)])
def test_a_box_grid_at_the_node_bound_is_accepted(dim, n):
    assert n**dim == charge.MAX_GRID_NODES
    _, axes = bandscan._box_grid([(-1, 1)] * dim, dim, n)
    assert [axis.size for axis in axes] == [n] * dim


@pytest.mark.parametrize(
    "call, nodes",
    [
        (lambda: bandscan.gap_map(massive_dirac_model(), [(-1, 1)] * 2, 4097), 4097**2),
        (lambda: find_crossings(weyl_model(), [(-1, 1)] * 3, 257), 257**3),
        (lambda: min_gap(weyl_model(), [(-1, 1)] * 3, 10**6), 10**18),
    ],
    ids=["gap_map-2d", "find_crossings-3d", "min_gap-3d"],
)
def test_a_box_grid_beyond_the_node_bound_is_refused(call, nodes):
    with pytest.raises(ValueError, match=f"has {nodes} nodes, more than MAX_GRID_NODES = {2**24}"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bandscan.gap_map(weyl_model(), [(-1, 1), (-1e308, 1e308), (-1, 1)], 8),
         r"^box axis 2 from -1e\+308 to 1e\+308 is too wide: hi - lo overflows$"),
        (lambda: bandscan.gap_map(weyl_model(), [(-1, 1)] * 3, 0), r"got n = 0$"),
        (lambda: bandscan.gap_map(weyl_model(), [(-1, 1)] * 3, -1), r"got n = -1$"),
        (lambda: bandscan.gap_map(weyl_model(), [(-1, 1)] * 3, 1), r"got n = 1$"),
        (lambda: bandscan.gap_map(weyl_model(), [(-1, 1)] * 3, True), r"got n = True$"),
        (lambda: bandscan.gap_map(weyl_model(), [(-1, 1)] * 3, 8.5), r"got n = 8.5$"),
        (lambda: find_crossings(weyl_model(), [(-1, 1)] * 3, 8.5), r"got n = 8.5$"),
        (lambda: find_crossings(weyl_model(), [(-1, 1)] * 3, True),
         r"^coarse grid must have at least 8 points per axis, got True$"),
    ],
    ids=["width-overflows", "n=0", "n=-1", "n=1", "n=True", "n=8.5",
         "find_crossings-n=8.5", "find_crossings-n=True"],
)
def test_a_box_grid_refuses_an_unusable_box_or_grid_size(call, message):
    # Unrefused, the overflowing width reached linspace (two RuntimeWarnings,
    # then a NaN grid blamed on the model), n = 0 and True gave an empty and a
    # one-node map, and -1 and 8.5 raised numpy's errors, naming no grid.
    with pytest.raises(ValueError, match=message):
        call()


# -- known wrong answers -------------------------------------------------------
# Each test asserts the right answer and is a strict xfail while its ROADMAP
# item stands, so the change that mends the defect must drop the marker.


def merged_at(coarse_n):
    reason = (
        "ROADMAP item 10: both crossings share one coarse minimum, so one is "
        "reported and its enclosure holds both (charge 0, trivial)"
    )
    return pytest.param(
        coarse_n, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
    )


@pytest.mark.parametrize("coarse_n", [merged_at(8), merged_at(16), merged_at(24), 32])
def test_crossings_closer_than_a_grid_spacing_are_charged_apart(coarse_n):
    reports = scan(close_pair_chiral_model(), [(-1, 1)] * 2, coarse_n)
    assert np.allclose([r.location for r in reports], [(0.56, 0.0), (0.66, 0.0)], atol=1e-6)
    assert [r.classification for r in reports] == [bandscan.DIRAC_CHIRAL] * 2
    assert sorted(r.charge.charge for r in reports) == [-1, 1]


def dropped_pair_model():
    """p1(Ax + b) sigma_1 + p2(Ax + b) sigma_2 with J = sigma_3, where
    A = [[-0.32, 0.89], [-0.09, 0.7]], b = (0.3, 0.4), p1(u) = (u1 + 0.22)(u1 + 0.17)
    and p2(u) = u2 + 0.11: chiral crossings at about (-0.8680, -0.8402) and
    (-0.6247, -0.8089), 0.245 apart, in a narrow valley of the gap."""
    (a11, a12), (a21, a22), (b1, b2) = (-0.32, 0.89), (-0.09, 0.7), (0.3, 0.4)
    r1, r2 = b1 + 0.22, b1 + 0.17
    terms = {
        (2, 0): a11 * a11 * SIGMA_1,
        (1, 1): 2.0 * a11 * a12 * SIGMA_1,
        (0, 2): a12 * a12 * SIGMA_1,
        (1, 0): a11 * (r1 + r2) * SIGMA_1 + a21 * SIGMA_2,
        (0, 1): a12 * (r1 + r2) * SIGMA_1 + a22 * SIGMA_2,
        (0, 0): r1 * r2 * SIGMA_1 + (b2 + 0.11) * SIGMA_2,
    }
    return BandModel(MatrixPolyField(2, 2, terms), chiral=SIGMA_3)


def dropped_at(coarse_n):
    reason = (
        "ROADMAP item 10: the compass search stops after SEARCH_MAX_ITER polls "
        "along the gap's narrow valley, far above GAP_TOL, so both crossings are dropped"
    )
    return pytest.param(
        coarse_n, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
    )


@pytest.mark.parametrize("coarse_n", [dropped_at(16), dropped_at(32), dropped_at(64)])
def test_crossings_in_a_narrow_valley_of_the_gap_are_found(coarse_n):
    reports = sorted(scan(dropped_pair_model(), [(-1, 1)] * 2, coarse_n), key=lambda r: r.location[0])
    assert len(reports) == 2
    assert np.allclose([r.location for r in reports], [(-0.8680, -0.8402), (-0.6247, -0.8089)],
                       atol=1e-4)
    assert sorted(r.charge.charge for r in reports) == [-1, 1]


def eight_weyl_model(c):
    """c sum_j (x_j^2 - 0.3) Gamma_j over the generators of build_rep(3):
    Weyl points at the eight corners (+-sqrt(0.3))^3, none of them dyadic."""
    gammas = clifford.build_rep(3).gammas
    terms = {(0, 0, 0): -0.3 * c * sum(gammas)}
    for j, g in enumerate(gammas):
        terms[tuple(2 * (k == j) for k in range(3))] = c * g
    return BandModel(MatrixPolyField(3, 2, terms))


def lost_at(c):
    reason = (
        "ROADMAP item 21: the search stops at SEARCH_MIN_STEP in x with the gap "
        "near 2.2e-13 c, above the absolute GAP_TOL, so all eight crossings are dropped"
    )
    return pytest.param(c, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason))


@pytest.mark.parametrize("c", [1.0, 1e4, lost_at(1e5), lost_at(1e6)])
def test_eight_weyl_points_scan_alike_at_every_scale(c):
    reports = scan(eight_weyl_model(c), [(-1, 1)] * 3)
    assert len(reports) == 8
    locations = np.array([r.location for r in reports])
    assert np.allclose(np.abs(locations), np.sqrt(0.3), atol=1e-6)
    assert len({tuple(np.sign(x)) for x in locations}) == 8
    # Near a corner p the model is linear, 2c diag(p) x in the generators,
    # so its charge is the Weyl field's times the sign of p1 p2 p3.
    expected = [chern_sign_weyl() * int(np.sign(np.prod(x))) for x in locations]
    assert [r.charge.charge for r in reports] == expected


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 20: the enclosure reaches past the box's edge and also "
    "holds the crossing at x3 = -0.2, so the charge reported is their sum, 0",
)
def test_an_enclosure_holds_only_the_crossing_it_charges():
    model = two_weyl_model(0.2)
    full = [r for r in scan(model, [(-1, 1)] * 3) if r.location[2] > 0]
    assert len(full) == 1 and abs(full[0].charge.charge) == 1
    (report,) = scan(model, [(-1, 1), (-1, 1), (0.1, 1)])
    assert np.allclose(report.location, full[0].location, atol=1e-6)
    assert report.charge.charge == full[0].charge.charge


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 21: GAP_TOL = 1e-8 is absolute, and at this scale the "
    "pattern search stops above it, so the crossing is dropped",
)
@pytest.mark.parametrize("scale", [5e8, 1e10])
def test_a_scaled_weyl_model_scans_as_the_weyl_model(scale):
    (expected,) = scan(weyl_model(), [(-1, 1)] * 3)
    terms = {a: scale * m for a, m in weyl_model().field.terms.items()}
    reports = scan(BandModel(MatrixPolyField(3, 2, terms)), [(-1, 1)] * 3)
    assert len(reports) == 1
    assert np.allclose(reports[0].location, expected.location, atol=1e-6)
    assert reports[0].charge.charge == expected.charge.charge
