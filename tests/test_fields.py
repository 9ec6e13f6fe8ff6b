"""Matrix polynomial fields: evaluation, exact derivatives, transformations."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgen import clifford, generators
from kgen._linalg import max_abs
from kgen.errors import DimensionMismatchError, ModelFormatError
from kgen.fields import EvaluableField, MatrixPolyField
from kgen.serialize import json_text


def random_poly_field(rng, ambient=3, size=2, degree=2, hermitian=False):
    terms = {}
    for _ in range(5):
        alpha = tuple(int(a) for a in rng.integers(0, degree + 1, ambient))
        mat = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        if hermitian:
            mat = 0.5 * (mat + mat.conj().T)
        terms[alpha] = terms.get(alpha, 0) + mat
    return MatrixPolyField(ambient, size, terms)


def test_evaluate_single_and_batch_agree():
    rng = np.random.default_rng(0)
    field = random_poly_field(rng)
    pts = rng.standard_normal((20, 3))
    batch = field.evaluate_batch(pts)
    for k, p in enumerate(pts):
        assert np.allclose(batch[k], field.evaluate(p), atol=1e-14)


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(1)
    field = random_poly_field(rng, degree=3)
    step = 1e-5
    for _ in range(10):
        x = rng.standard_normal(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            fd = (field.evaluate(x + e) - field.evaluate(x - e)) / (2 * step)
            exact = field.derivative(j).evaluate(x)
            assert np.max(np.abs(fd - exact)) < 1e-9


def test_derivative_of_constant_is_zero():
    field = MatrixPolyField(2, 2, {(0, 0): np.eye(2)})
    d = field.derivative(0)
    assert np.array_equal(d.evaluate([0.3, 0.7]), np.zeros((2, 2)))


@st.composite
def exponent_tables(draw):
    """(ambient dimension, distinct multi-indices of degree <= 3)."""
    ambient = draw(st.integers(2, 4))
    alpha = st.lists(st.integers(0, 3), min_size=ambient, max_size=ambient)
    alphas = alpha.filter(lambda a: sum(a) <= 3).map(tuple)
    return ambient, draw(st.lists(alphas, max_size=6, unique=True))


@settings(max_examples=60, deadline=None)
@given(
    table=exponent_tables(),
    size=st.integers(1, 3),
    points=st.integers(0, 7),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(table=(2, []), size=2, points=3, k=2, seed=0)
@example(table=(3, [(0, 0, 0)]), size=2, points=3, k=2, seed=0)
def test_tangent_evaluation_matches_per_term_forms(table, size, points, k, seed):
    ambient, alphas = table
    rng = np.random.default_rng(seed)
    terms = {a: rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
             for a in alphas}
    field = MatrixPolyField(ambient, size, terms)
    pts = rng.uniform(-1.5, 1.5, (points, ambient))
    tangents = rng.standard_normal((points, k, ambient))

    values, derivs = field.evaluate_batch(pts, tangents)
    assert values.shape == (points, size, size)
    assert derivs.shape == (points, k, size, size)
    assert np.array_equal(values, field.evaluate_batch(pts))

    per_term = np.zeros((points, size, size), dtype=complex)
    for alpha, mat in terms.items():
        per_term += np.prod(pts ** np.array(alpha), axis=1)[:, None, None] * mat
    partials = [field.derivative(i).evaluate_batch(pts) for i in range(ambient)]
    chain = sum(tangents[:, :, i, None, None] * partials[i][:, None] for i in range(ambient))
    for new, ref in ((values, per_term), (derivs, chain)):
        scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
        np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(
    table=exponent_tables().filter(lambda t: t[1]),
    half=st.integers(1, 2),
    chiral=st.booleans(),
    pick=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_failing_terms_flags_one_perturbed_index_at_every_scale(table, half, chiral, pick, seed):
    # Coefficients are Hermitian, or anti-commute with a rotated grading J, up
    # to the rounding of the rotation; one term gets a defect of 1e-6 relative
    # to the largest entry (i * 1 breaks Hermiticity, J breaks {J, M} = 0).
    ambient, alphas = table
    rng = np.random.default_rng(seed)
    n = 2 * half
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    j = q.conj().T @ np.diag([1.0] * half + [-1.0] * half) @ q
    terms = {}
    for alpha in alphas:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if chiral:
            a[:half, :half] = a[half:, half:] = 0.0
            mat = q.conj().T @ a @ q
        else:
            mat = a + a.conj().T
        terms[alpha] = 10.0 ** rng.uniform(-3, 0) * mat
    bad = alphas[pick % len(alphas)]
    eps = 1e-6 * max(np.max(np.abs(m)) for m in terms.values())
    terms[bad] = terms[bad] + eps * (j if chiral else 1j * np.eye(n))
    def residual(m):
        return max_abs(j @ m + m @ j) if chiral else max_abs(m - m.conj().T)

    for k in range(-8, 9):
        scaled = MatrixPolyField(ambient, n, {a: 10.0**k * m for a, m in terms.items()})
        assert scaled.failing_terms(residual) == [bad]


def test_failing_terms_on_the_zero_field_needs_exact_identities():
    field = MatrixPolyField(2, 2, {(0, 0): np.zeros((2, 2))})
    assert field.failing_terms(lambda m: 1.0) == [(0, 0)]
    assert field.failing_terms(lambda m: 0.0) == []


def test_tangent_shape_checks():
    field = MatrixPolyField(2, 2, {(1, 0): np.eye(2)})
    with pytest.raises(DimensionMismatchError):
        field.evaluate_batch(np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(DimensionMismatchError):
        field.evaluate_batch(np.zeros((4, 2)), np.zeros((3, 1, 2)))


def product_rule_evaluation(field, pts, tangents):
    """Values and tangent derivatives from the product-rule loop with every power
    and product taken: x ** 1, x ** 0 and the factors of 1 included."""
    n_terms, n = len(field.terms), field.size
    mono = np.empty((len(pts), n_terms))
    dmono = np.zeros(tangents.shape[:2] + (n_terms,))
    for t, alpha in enumerate(field.terms):
        powers = {j: pts[:, j] ** p for j, p in enumerate(alpha) if p}
        mono[:, t] = math.prod(powers.values())
        for j in powers:
            rest = math.prod(v for i, v in powers.items() if i != j)
            slope = alpha[j] * pts[:, j] ** (alpha[j] - 1) * rest
            dmono[:, :, t] += tangents[:, :, j] * slope[:, None]
    stacked = np.array(list(field.terms.values())).view(float).reshape(n_terms, 2 * n * n)
    values = (mono @ stacked).view(complex).reshape(-1, n, n)
    derivs = (dmono.reshape(-1, n_terms) @ stacked).view(complex)
    return values, derivs.reshape(tangents.shape[:2] + (n, n))


@pytest.mark.parametrize(
    "alphas",
    [
        [(0, 0, 1)],  # x2 alone
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],  # linear, as the generators are
        [(0, 0, 0), (1, 0, 0), (0, 0, 1)],  # with a constant term
        [(2, 1, 0), (0, 0, 1)],  # x0^2 x1 + x2
        [(3, 1, 0), (1, 2, 1), (0, 3, 0), (1, 1, 1)],
    ],
)
def test_evaluation_is_bit_identical_to_the_full_product_rule(alphas):
    # Skipping x ** 1, x ** 0 and the products by 1 is exact, and a linear
    # term's derivative still adds its tangent to 0.0, so -0.0 tangents give
    # the same bits too.
    rng = np.random.default_rng(len(alphas))
    terms = {a: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for a in alphas}
    terms[alphas[0]] = np.eye(2)
    field = MatrixPolyField(3, 2, terms)
    pts = rng.uniform(-1.5, 1.5, (9, 3))
    pts[0] = [0.0, -0.0, 1.0]
    tangents = rng.standard_normal((9, 3, 3))
    tangents[::2, 1] = -0.0
    tangents[1, :, 2] = -0.0
    expected = [a.tobytes() for a in product_rule_evaluation(field, pts, tangents)]
    assert [a.tobytes() for a in field.evaluate_batch(pts, tangents)] == expected
    assert field.evaluate_batch(pts).tobytes() == expected[0]
    out = (np.empty((9, 2, 2), dtype=complex), np.empty((9, 3, 2, 2), dtype=complex))
    result = field.evaluate_batch(pts, tangents, out)
    assert all(r is o for r, o in zip(result, out))
    assert [a.tobytes() for a in out] == expected


def weyl_points():
    """The Weyl field on S^2 with 5 points and two tangents at each."""
    rng = np.random.default_rng(5)
    field = generators.weyl_field(2, clifford.build_rep(3, "left"))
    return field, rng.standard_normal((5, 3)), rng.standard_normal((5, 2, 3))


@pytest.mark.parametrize(
    "out",
    [
        # Strided views of the right shapes: a GEMM into a reshaped copy of
        # them would return with ``out`` still all zeros.
        (np.zeros((5, 2, 4), complex)[:, :, :2], np.zeros((5, 2, 2, 4), complex)[..., :2]),
        (np.zeros((6, 2, 2), complex), np.zeros((6, 2, 2, 2), complex)),  # 6 rows, not 5
        (np.zeros((5, 2, 2)), np.zeros((5, 2, 2, 2))),  # float
        (np.zeros((5, 2, 2), np.complex64), np.zeros((5, 2, 2, 2), np.complex64)),
        (np.zeros((5, 2, 2), complex), np.zeros((5, 3, 2, 2), complex)),  # three tangents
        (np.zeros((5, 2, 2), complex),
         np.frombuffer(bytes(640), complex).reshape(5, 2, 2, 2)),  # read-only
        (np.zeros((5, 2, 2), complex),),
        [np.zeros((5, 2, 2), complex), [[0j]]],
    ],
)
def test_evaluate_batch_refuses_an_out_it_cannot_write(out):
    field, pts, tan = weyl_points()
    with pytest.raises(DimensionMismatchError, match=r"\(5, 2, 2\) and \(5, 2, 2, 2\)"):
        field.evaluate_batch(pts, tan, out)


def test_evaluate_batch_refuses_an_out_without_tangents():
    field, pts, _ = weyl_points()
    out = (np.zeros((5, 2, 2), complex), np.zeros((5, 2, 2, 2), complex))
    with pytest.raises(ValueError, match="pass the tangents too"):
        field.evaluate_batch(pts, None, out)


@settings(max_examples=60, deadline=None)
@given(
    table=exponent_tables(),
    size=st.integers(1, 3),
    points=st.integers(0, 9),
    k=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(table=(3, []), size=2, points=4, k=2, seed=0)  # no terms
@example(table=(3, [(0, 0, 0)]), size=2, points=4, k=2, seed=0)  # a constant alone
@example(table=(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]), size=2,
         points=9, k=3, seed=1)  # linear, as the S^3 generators are
def test_evaluation_does_not_depend_on_the_layout(table, size, points, k, seed):
    # The same points and tangents as C-ordered arrays, as coordinate-major
    # views (the layout of the kernels' grid rows) and as the enclosure's
    # center + radius * rows, computed from coordinate-major rows.
    ambient, alphas = table
    rng = np.random.default_rng(seed)
    terms = {a: rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
             for a in alphas}
    field = MatrixPolyField(ambient, size, terms)
    rows = rng.uniform(-1.0, 1.0, (ambient, points)).T
    drows = rng.standard_normal((ambient, points, k)).transpose(1, 2, 0)
    center, radius = rng.uniform(-1.0, 1.0, ambient), rng.uniform(0.1, 2.0)
    moved = (center + radius * rows, radius * drows)
    c_ordered = tuple(np.ascontiguousarray(a) for a in moved)
    assert points < 2 or not moved[0].flags.c_contiguous
    layouts = (c_ordered, tuple(a.T.copy().T for a in c_ordered), moved)
    results = [field.evaluate_batch(pts, tan) for pts, tan in layouts]
    values = [field.evaluate_batch(pts) for pts, _ in layouts]
    expected = [a.tobytes() for a in results[0]]
    for (value, deriv), alone in zip(results, values):
        assert [value.tobytes(), deriv.tobytes()] == expected
        assert alone.tobytes() == expected[0]


def test_direct_sum_blocks():
    rng = np.random.default_rng(2)
    a = random_poly_field(rng, size=2)
    b = random_poly_field(rng, size=3)
    s = a.direct_sum(b)
    x = rng.standard_normal(3)
    v = s.evaluate(x)
    assert v.shape == (5, 5)
    assert np.allclose(v[:2, :2], a.evaluate(x), atol=1e-14)
    assert np.allclose(v[2:, 2:], b.evaluate(x), atol=1e-14)
    assert np.max(np.abs(v[:2, 2:])) == 0.0


def test_sectors_undo_an_interleaved_direct_sum():
    rng = np.random.default_rng(6)
    a = random_poly_field(rng, size=2)
    b = random_poly_field(rng, size=3)
    # P*(a + b)P puts a on the indices 0, 2 and b on 1, 3, 4.
    interleaved = a.direct_sum(b).conjugated_by(np.eye(5)[[0, 2, 1, 3, 4]])
    first, second = interleaved.sectors
    for sector, part in ((first, a), (second, b)):
        assert sector.size == part.size
        assert all(np.array_equal(sector.terms[k], part.terms[k]) for k in part.terms)


def test_a_dense_conjugate_is_one_sector():
    rng = np.random.default_rng(7)
    field = random_poly_field(rng, size=2).direct_sum(random_poly_field(rng, size=2))
    w, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    mixed = field.conjugated_by(w)
    assert len(field.sectors) == 2
    assert len(mixed.sectors) == 1 and mixed.sectors[0] is mixed


def test_the_zero_field_is_one_sector_per_index():
    sectors = MatrixPolyField(3, 4, {(1, 0, 0): np.zeros((4, 4))}).sectors
    assert [s.size for s in sectors] == [1, 1, 1, 1]
    assert all(max_abs(s.terms[(1, 0, 0)]) == 0.0 for s in sectors)


def test_reflect():
    rng = np.random.default_rng(3)
    field = random_poly_field(rng)
    x = rng.standard_normal(3)
    y = x.copy()
    y[0] = -y[0]
    assert np.allclose(field.reflect(0).evaluate(x), field.evaluate(y), atol=1e-14)


def test_conjugated_by():
    rng = np.random.default_rng(4)
    field = random_poly_field(rng)
    w, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    x = rng.standard_normal(3)
    expected = w.conj().T @ field.evaluate(x) @ w
    assert np.allclose(field.conjugated_by(w).evaluate(x), expected, atol=1e-13)


def test_affine_pullback_exact():
    rng = np.random.default_rng(5)
    field = random_poly_field(rng, degree=3)
    center = rng.standard_normal(3)
    radius = 0.37
    pulled = field.affine_pullback(center, radius)
    for _ in range(10):
        u = rng.standard_normal(3)
        assert np.allclose(
            pulled.evaluate(u), field.evaluate(center + radius * u), atol=1e-11
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("center, radius", [([0.0, 0.0], 1.341e154), ([1e200, 0.0], 1.0)])
def test_affine_pullback_refuses_overflow(center, radius):
    # radius**2 overflows, or the centre's square does; either coefficient is
    # inf, which the constructor refuses.
    field = MatrixPolyField(2, 1, {(2, 0): [[1.0]], (0, 1): [[1.0]]})
    with pytest.raises(ValueError, match="not finite"):
        field.affine_pullback(center, radius)


def test_payload_round_trip():
    rng = np.random.default_rng(6)
    field = random_poly_field(rng, hermitian=True)
    back = MatrixPolyField.from_payload(field.to_payload())
    assert back.ambient_dim == field.ambient_dim
    assert back.selfadjoint
    assert set(back.terms) == set(field.terms)
    for alpha in field.terms:
        assert np.array_equal(back.terms[alpha], field.terms[alpha])


I_X = {"dimension": 1, "size": 1, "terms": [{"powers": [1], "matrix": [[[0.0, 1.0]]]}]}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({}, "missing the 'dimension' key"),
        ({"dimension": "2", "size": 1, "terms": []}, "'dimension' and 'size' must be integers"),
        # i x is not self-adjoint; bool("false") is True, so the flag must be a boolean.
        ({**I_X, "selfadjoint": "false"}, "'selfadjoint' must be true or false"),
        ({**I_X, "selfadjoint": True}, r"coefficients at multi-indices \[\(1,\)\] are not Hermitian"),
        ({**I_X, "size": 0}, "'dimension' and 'size' must be >= 1, got 1 and 0"),
        ({**I_X, "dimension": -1}, "'dimension' and 'size' must be >= 1, got -1 and 1"),
        ({**I_X, "terms": [{"powers": [-1], "matrix": [[[0.0, 1.0]]]}]}, "bad multi-index"),
        ({**I_X, "size": 2}, r"has shape \(1, 1\), expected \(2, 2\)"),
    ],
    ids=["empty", "str-dimension", "str-selfadjoint", "non-hermitian-selfadjoint",
         "zero-size", "negative-dimension", "negative-power", "wrong-shape"],
)
def test_payload_schema_violations(payload, message):
    with pytest.raises(ModelFormatError, match=message):
        MatrixPolyField.from_payload(payload)


def test_a_legacy_domain_key_loads_and_is_not_written():
    # Older files carry a "domain" tag that no computation read; any value loads.
    for domain in ("sphere", "disc", "euclidean", "torus"):
        field = MatrixPolyField.from_payload({**I_X, "domain": domain})
        assert field.to_payload() == MatrixPolyField.from_payload(I_X).to_payload()
        assert "domain" not in field.to_payload()


def test_selfadjoint_is_read_from_the_coefficients():
    # i x is not self-adjoint, so its payload says false and loads back; a
    # payload's false does not hide Hermitian coefficients.
    with pytest.raises(TypeError):
        MatrixPolyField(1, 1, {(1,): [[1j]]}, selfadjoint=True)
    i_x = MatrixPolyField(1, 1, {(1,): [[1j]]})
    assert (i_x.selfadjoint, i_x.to_payload()["selfadjoint"]) == (False, False)
    assert MatrixPolyField.from_payload(i_x.to_payload()).to_payload() == i_x.to_payload()
    x = MatrixPolyField.from_payload({**I_X, "terms": [{"powers": [1], "matrix": [[[1.0, 0.0]]]}],
                                      "selfadjoint": False})
    assert x.selfadjoint and x.to_payload()["selfadjoint"] is True
    assert MatrixPolyField.from_payload(I_X).selfadjoint is False


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: f.derivative(2), "axis 2 out of range"),
        (lambda f: f.derivative(-1), "axis -1 out of range"),
        (lambda f: f.direct_sum(MatrixPolyField(3, 2, {})), "matching ambient dimensions"),
        (lambda f: f.plus(MatrixPolyField(3, 2, {})), "matching shapes"),
        (lambda f: f.plus(MatrixPolyField(2, 3, {})), "matching shapes"),
        (lambda f: f.affine_pullback([0.0, 0.0, 0.0], 1.0), "center must match"),
    ],
    ids=["axis-high", "axis-negative", "direct-sum", "plus-dimension", "plus-size", "pullback"],
)
def test_algebra_refuses_mismatched_dimensions(call, message):
    with pytest.raises(ValueError, match=message):
        call(MatrixPolyField(2, 2, {(1, 0): np.eye(2)}))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_powers_must_fit_a_signed_64_bit_integer():
    # x^(2^63 - 1) is evaluated (to 0 inside the unit interval); 2^63 is refused
    # where the field is built, before any evaluation could overflow on it.
    field = MatrixPolyField(1, 1, {(2**63 - 1,): [[1.0]]})
    assert field.evaluate([0.5])[0, 0] == 0.0
    for power in (2**63, 10**400):
        with pytest.raises(ModelFormatError, match="powers must fit a signed 64-bit integer"):
            MatrixPolyField(1, 1, {(power,): [[1.0]]})


@pytest.mark.parametrize(
    "terms, message",
    [
        # int() would read 1.5 as 1, -0.5 as 0 and "2" as 2, and merge 1.9 into 1.
        ({(1.5, 0): [[1.0]]}, r"\(1.5, 0\)"),
        ({(-0.5, 0): [[1.0]]}, r"\(-0.5, 0\)"),
        ({("2", 0): [[1.0]]}, r"\('2', 0\)"),
        ({(1, 0): [[1.0]], (1.9, 0): [[2.0]]}, r"\(1.9, 0\)"),
    ],
    ids=["fraction", "negative-fraction", "string", "merged"],
)
def test_powers_must_be_integers(terms, message):
    with pytest.raises(ModelFormatError, match="bad multi-index " + message):
        MatrixPolyField(2, 1, terms)


def test_numpy_integer_dimensions_round_trip_through_json():
    field = MatrixPolyField(np.int64(2), np.int64(1), {(1, 0): [[1.0]]})
    assert (type(field.ambient_dim), type(field.size)) == (int, int)
    back = MatrixPolyField.from_payload(json.loads(json_text(field.to_payload())))
    assert back.to_payload() == field.to_payload()


@pytest.mark.parametrize(
    "ambient_dim, size", [(2.0, 1), (2, 1.0), (np.float64(2), 1)], ids=["dimension", "size", "numpy"]
)
def test_dimensions_must_be_integers(ambient_dim, size):
    # A float dimension would be written to JSON as 2.0, which from_payload refuses.
    with pytest.raises(ModelFormatError, match="'dimension' and 'size' must be integers"):
        MatrixPolyField(ambient_dim, size, {(1, 0): [[1.0]]})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_coefficients_must_be_finite(bad):
    with pytest.raises(ModelFormatError, match=r"coefficient of \(0, 2\) is not finite"):
        MatrixPolyField(2, 2, {(1, 0): np.eye(2), (0, 2): np.diag([1.0, bad])})


BIG = MatrixPolyField(2, 2, {(0, 0): 1e308 * np.eye(2)})


@pytest.mark.parametrize(
    "derive",
    [
        lambda: BIG.plus(BIG),
        lambda: MatrixPolyField(2, 1, {(3, 0): [[1e308]]}).derivative(0),
        lambda: BIG.conjugated_by(2.0 * np.eye(2)),
    ],
    ids=["plus", "derivative", "conjugated_by"],
)
def test_derived_fields_that_overflow_are_refused(derive):
    # Every derived field goes through the constructor; the arithmetic warns
    # of its overflow, and the constructor refuses the inf (or NaN) it leaves.
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ModelFormatError, match="is not finite"):
            derive()


def test_shifted_folds_the_level_into_the_constant_coefficient():
    field = random_poly_field(np.random.default_rng(3), hermitian=True)
    for zero in (0, 0.0, -0.0):
        assert field.shifted(zero) is field
    shifted = field.shifted(0.75)
    assert shifted.selfadjoint == field.selfadjoint
    points = np.random.default_rng(4).uniform(-2.0, 2.0, (16, 3))
    assert max_abs(shifted.evaluate_batch(points) - field.evaluate_batch(points)
                   + 0.75 * np.eye(2)) <= 1e-12
    # The level cancels in the coefficient, before evaluation rounds.
    line = MatrixPolyField(1, 1, {(0,): [[1e16]], (1,): [[1.0]]})
    assert line.shifted(1e16).evaluate([0.5])[0, 0] == 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_shift_that_overflows_is_refused_without_a_warning():
    with pytest.raises(ModelFormatError, match=r"coefficient of \(0, 0\) is not finite"):
        BIG.shifted(-1e308)


def test_shape_validation():
    with pytest.raises(ValueError):
        MatrixPolyField(2, 2, {(0,): np.eye(2)})
    with pytest.raises(ValueError):
        MatrixPolyField(2, 2, {(0, 0): np.eye(3)})
    field = MatrixPolyField(2, 2, {(0, 0): np.eye(2)})
    with pytest.raises(DimensionMismatchError):
        field.evaluate([1.0, 2.0, 3.0])


def test_evaluable_field_batch_matches_pointwise():
    rep = clifford.build_rep(3, clifford.LEFT)
    transform = generators.bounded_transform(
        generators.weyl_field(2, rep)
    )
    pts = np.random.default_rng(9).standard_normal((7, 3))
    batch = transform.evaluate_batch(pts)
    for k, p in enumerate(pts):
        assert np.allclose(batch[k], transform.evaluate(p), atol=1e-15)


def test_evaluable_field_shape_checks():
    def identities(points):
        return np.broadcast_to(np.eye(2), (len(points), 2, 2))

    field = EvaluableField(2, 2, identities)
    assert np.array_equal(field.evaluate([0.3, 0.1]), np.eye(2))
    assert field.evaluate_batch(np.zeros((5, 2))).shape == (5, 2, 2)
    with pytest.raises(DimensionMismatchError):
        field.evaluate([1.0])
    with pytest.raises(DimensionMismatchError):
        field.evaluate_batch(np.zeros((5, 3)))
    bad = EvaluableField(2, 2, lambda x: np.broadcast_to(np.eye(3), (len(x), 3, 3)))
    with pytest.raises(DimensionMismatchError):
        bad.evaluate([1.0, 0.0])
    # An evaluator returning one (N, N) value instead of the (M, N, N) stack
    # fails loudly, whatever the batch size.
    per_point = EvaluableField(2, 2, lambda x: np.eye(2))
    for count in (1, 2, 3):
        with pytest.raises(DimensionMismatchError):
            per_point.evaluate_batch(np.zeros((count, 2)))
