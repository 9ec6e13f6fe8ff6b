"""JSON round-trips of fields, band models and reports, as hypothesis properties.

A field payload and a model file must come back bit for bit from strict JSON
(``allow_nan=False``), and a charge or crossing report must serialize as
strict JSON whatever numpy scalar types its fields hold.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kgen import bandscan
from kgen.bandscan import BandModel, CrossingReport, load_model, save_model
from kgen.charge import ChargeResult
from kgen.fields import DISC, EUCLIDEAN, SPHERE, MatrixPolyField

FINITE = st.floats(allow_nan=False, allow_infinity=False)
TEXT = st.none() | st.text(max_size=8)


@st.composite
def matrices(draw, n, hermitian, entries=FINITE):
    """n x n complex matrices of ``entries`` (any finite float by default);
    Hermitian ones mirror their upper triangle, so their Hermiticity is exact."""
    re = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    im = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    mat = np.stack([re, im], axis=-1).view(complex)[..., 0]  # keeps the sign of -0.0
    if hermitian:
        mat = np.triu(mat, 1)
        mat = mat + mat.conj().T + np.diag(re.diagonal())
    return mat


@st.composite
def term_dicts(draw, dim, n, hermitian, block=None, entries=FINITE):
    powers = st.tuples(*[st.integers(0, 3)] * dim)
    alphas = draw(st.lists(powers, min_size=1, max_size=3, unique=True))
    terms = {}
    for alpha in alphas:
        if block is None:
            terms[alpha] = draw(matrices(n, hermitian, entries))
        else:  # [[0, B], [B*, 0]] anti-commutes exactly with diag(I, -I)
            b = draw(matrices(block, False, entries))
            zero = np.zeros((block, block))
            terms[alpha] = np.block([[zero, b], [b.conj().T, zero]])
    return terms


@st.composite
def fields(draw):
    dim, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    hermitian = draw(st.booleans())
    domain = draw(st.sampled_from([SPHERE, DISC, EUCLIDEAN]))
    return MatrixPolyField(dim, n, draw(term_dicts(dim, n, hermitian)), domain)


@st.composite
def models(draw):
    dim = draw(st.integers(2, 3))
    if draw(st.booleans()):
        k = draw(st.integers(1, 2))
        n, chiral = 2 * k, np.diag([1.0] * k + [-1.0] * k)
        terms = draw(term_dicts(dim, n, True, block=k))
    else:
        n, chiral = draw(st.integers(1, 3)), None
        terms = draw(term_dicts(dim, n, True))
    field = MatrixPolyField(dim, n, terms, EUCLIDEAN)
    # A two-dimensional chiral model has its crossings at energy 0, so its
    # Fermi level must be 0.
    fermi = 0.0 if dim == 2 and chiral is not None else draw(FINITE)
    return BandModel(field, chiral=chiral, fermi=fermi, name=draw(TEXT), comment=draw(TEXT))


def numpy_or_python(value_strategy, numpy_type):
    return value_strategy.flatmap(lambda v: st.sampled_from([v, numpy_type(v)]))


charge_results = st.builds(
    ChargeResult,
    raw=numpy_or_python(FINITE, np.float64),
    charge=numpy_or_python(st.integers(-8, 8), np.int64),
    residual=numpy_or_python(st.floats(0.0, 0.5), np.float64),
    resolution=numpy_or_python(st.integers(4, 512), np.int64),
    convergence_pair=st.tuples(numpy_or_python(FINITE, np.float64), FINITE),
    converged=numpy_or_python(st.booleans(), np.bool_),
)

crossing_reports = st.integers(2, 3).flatmap(
    lambda dim: st.builds(
        CrossingReport,
        location=st.tuples(*[numpy_or_python(FINITE, np.float64)] * dim),
        gap_at_location=numpy_or_python(st.floats(0.0, 1e-8), np.float64),
        enclosure_radius=st.none() | numpy_or_python(st.floats(1e-9, 0.5), np.float64),
        charge=st.none() | charge_results,
        classification=st.sampled_from(
            [bandscan.WEYL, bandscan.DIRAC_CHIRAL, bandscan.TRIVIAL, bandscan.UNCLASSIFIED]
        ),
        radius_capped=numpy_or_python(st.booleans(), np.bool_),
        error=TEXT,
    )
)


def strict(payload) -> str:
    return json.dumps(payload, allow_nan=False, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(field=fields())
def test_field_payload_round_trips_through_strict_json(field):
    text = strict(field.to_payload())
    back = MatrixPolyField.from_payload(json.loads(text))
    assert strict(back.to_payload()) == text
    assert (back.ambient_dim, back.size, back.domain, back.selfadjoint) == (
        field.ambient_dim, field.size, field.domain, field.selfadjoint)
    assert set(back.terms) == set(field.terms)
    for alpha, mat in field.terms.items():
        assert back.terms[alpha].tobytes() == mat.tobytes()


SMALL = st.floats(-4.0, 4.0)


@st.composite
def small_fields(draw, dim, n):
    """Fields of entries in [-4, 4], Hermitian or not, that no transform below
    overflows."""
    hermitian = draw(st.booleans())
    domain = draw(st.sampled_from([SPHERE, DISC, EUCLIDEAN]))
    return MatrixPolyField(dim, n, draw(term_dicts(dim, n, hermitian, entries=SMALL)), domain)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_derived_field_reports_its_coefficients_and_loads_back(data):
    # selfadjoint is read from the coefficients of every field a transform
    # makes, so no field writes a payload that its own loader refuses.
    dim, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    f, g = data.draw(small_fields(dim, n)), data.draw(small_fields(dim, n))
    j = data.draw(st.integers(0, dim - 1))
    center = np.array(data.draw(st.lists(SMALL, min_size=dim, max_size=dim)))
    pair = f.direct_sum(g)
    derived = [
        f, pair, f.plus(g), f.shifted(data.draw(SMALL)),
        f.conjugated_by(data.draw(matrices(n, False, SMALL))), f.reflect(j), f.derivative(j),
        f.affine_pullback(center, data.draw(st.floats(0.25, 4.0))), *f.sectors, *pair.sectors,
    ]
    for h in derived:
        assert h.selfadjoint == (not h.non_hermitian_terms())
        back = MatrixPolyField.from_payload(json.loads(strict(h.to_payload())))
        assert back.selfadjoint == h.selfadjoint


@settings(max_examples=40, deadline=None)
@given(model=models())
def test_saved_model_loads_back_bit_for_bit(model):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert float(loaded.fermi).hex() == float(model.fermi).hex()
    assert (loaded.name, loaded.comment) == (model.name, model.comment)
    assert (loaded.chiral is None) == (model.chiral is None)
    for alpha, mat in model.terms.items():
        assert loaded.terms[alpha].tobytes() == mat.tobytes()


def plain(value):
    """Every leaf of a payload is a JSON type, never a numpy scalar."""
    if isinstance(value, dict):
        return all(isinstance(k, str) and plain(v) for k, v in value.items())
    if isinstance(value, list):
        return all(plain(v) for v in value)
    return value is None or type(value) in (bool, int, float, str)


@settings(max_examples=60, deadline=None)
@given(result=charge_results)
def test_charge_result_payload_is_strict_json(result):
    payload = result.to_payload()
    assert plain(payload)
    assert json.loads(strict(payload)) == payload
    assert payload["raw"].hex() == float(result.raw).hex()
    assert payload["charge"] == int(result.charge)
    assert payload["converged"] is bool(result.converged)
    assert [v.hex() for v in payload["convergence_pair"]] == [
        float(v).hex() for v in result.convergence_pair]


@settings(max_examples=60, deadline=None)
@given(report=crossing_reports)
def test_crossing_report_payload_is_strict_json(report):
    payload = report.to_payload()
    assert plain(payload)
    assert json.loads(strict(payload)) == payload
    assert [v.hex() for v in payload["location"]] == [float(v).hex() for v in report.location]
    assert payload["radius_capped"] is bool(report.radius_capped)
    assert (payload["charge"] is None) == (report.charge is None)
