"""JSON encoding of complex matrices and the payload schemas built on them,
and the text of float arrays.

Complex entries are stored as two-element ``[re, im]`` arrays.  Term lists are
sorted by multi-index so that serialization is deterministic.  Every verify
suite reports through :func:`suite_report`, and every payload is written by
:func:`json_text`.  :func:`repr_ascii` writes whole arrays of non-negative
floats as Python's ``repr`` would, one array operation at a time (the gap-map
CSV).
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .errors import ModelFormatError


def json_text(payload) -> str:
    """``payload`` as strict JSON (a NaN or infinity is a ValueError) with sorted
    keys, a two-space indent and a trailing newline: the one writer of every
    file and report."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def suite_report(suite: str, d, samples: int, max_residual: float, passed: bool, **extra) -> dict:
    """Report of a verify suite: the five shared keys, cast for strict JSON
    (``d`` may be None), followed by the suite's own ``extra`` keys."""
    return {
        "suite": suite,
        "d": None if d is None else int(d),
        "samples": int(samples),
        "max_residual": float(max_residual),
        "pass": bool(passed),
        **extra,
    }


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed complex matrix: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ModelFormatError(
            f"complex matrix must be square with [re, im] entries, got shape {arr.shape}"
        )
    # The conversion above also takes JSON's true and numeric strings such as "1".
    if any(type(v) not in (int, float) for row in data for entry in row for v in entry):
        raise ModelFormatError("malformed complex matrix: entries must be JSON numbers")
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError("complex matrix has non-finite entries")
    # A view, not re + 1j * im, which turns the sign of a -0.0 part into +0.0.
    return arr.view(complex)[..., 0]


def terms_to_json(terms: dict) -> list:
    return [
        {"powers": list(alpha), "matrix": matrix_to_json(mat)}
        for alpha, mat in sorted(terms.items())
    ]


def poly_from_json(payload) -> tuple:
    """``(dimension, size, terms)`` of a field or band-model payload, checked for
    what JSON alone can get wrong; the field constructor checks the rest of the
    coefficient schema (multi-index lengths and powers, shapes, dimension and size)."""
    if not isinstance(payload, dict):
        raise ModelFormatError("model file must contain a JSON object")
    for key in ("dimension", "size", "terms"):
        if key not in payload:
            raise ModelFormatError(f"model file is missing the {key!r} key")
    ambient_dim, size, data = payload["dimension"], payload["size"], payload["terms"]
    # type() rather than isinstance(), which would take JSON's true and false for 1 and 0.
    if type(ambient_dim) is not int or type(size) is not int:
        raise ModelFormatError("'dimension' and 'size' must be integers")
    if not isinstance(data, list):
        raise ModelFormatError("'terms' must be a list")
    terms = {}
    for entry in data:
        if not isinstance(entry, dict) or "powers" not in entry or "matrix" not in entry:
            raise ModelFormatError("each term needs 'powers' and 'matrix'")
        powers = entry["powers"]
        if not isinstance(powers, list) or not all(type(p) is int for p in powers):
            raise ModelFormatError(f"bad multi-index {powers!r}")
        mat = matrix_from_json(entry["matrix"])
        alpha = tuple(powers)
        if alpha in terms:
            raise ModelFormatError(f"duplicate multi-index {alpha}")
        terms[alpha] = mat
    return ambient_dim, size, terms


# -- repr of float64 arrays ----------------------------------------------------
# The shortest decimal that reads back as a double is found with Schubfach
# (R. Giulietti, "The Schubfach way to render doubles", 2020), in the
# formulation of its C ports: fixed 128-bit powers of ten and round-to-odd
# products, so every lane is exact uint64 arithmetic.  Every integer operand
# below is uint64 on purpose: uint64 mixed with int64 promotes to float64 and
# silently loses bits.

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_32 = _U64(32)
_K_MIN, _K_MAX = -292, 326  # powers of ten that doubles need
# Values per pass of repr_ascii, whose temporaries take a few hundred bytes a
# value: 2048 took 250 ns a value and 4096 took 360 ns (2-core Xeon).
_REPR_CHUNK = 2048


def _pow10_significand(k: int) -> int:
    """g = ceil(10^k 2^-r), with r chosen so that 2^127 <= g < 2^128."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    r = (num.bit_length() - 1 if k >= 0 else -den.bit_length()) - 127  # floor(log2 10^k) - 127
    if r >= 0:
        den <<= r
    else:
        num <<= -r
    return -(-num // den)


@functools.cache
def _pow10_limbs() -> tuple:
    """g for k in [_K_MIN, _K_MAX], indexed by k - _K_MIN, as uint64 arrays:
    its four 32-bit limbs (most significant first) and its high 64 bits.
    Built with Python ints at the first call, not at import."""
    gs = [_pow10_significand(k) for k in range(_K_MIN, _K_MAX + 1)]
    limbs = [[(g >> s) & 0xFFFFFFFF for g in gs] for s in (96, 64, 32, 0)]
    return tuple(np.array(a, dtype=_U64) for a in (*limbs, [g >> 64 for g in gs]))


def _round_to_odd(g3, g2, g1, g0, g_high, cp):
    """Top 64 bits of the 192-bit product g cp, with bit 0 set when its middle
    64 bits exceed 1.  g = g3:g2:g1:g0 in 32-bit limbs, g_high = g3:g2, and
    cp < 2^59, so each sum below stays under 2^64."""
    b0, b1 = cp & _LOW32, cp >> _32  # b1 < 2^27
    # x = (g1:g0) cp >> 64 = g1 b1 + (g1 b0 + g0 b1 + g0 b0 >> 32) >> 32
    t = ((g0 * b0) >> _32) + g1 * b0
    x_high = g1 * b1 + (t >> _32) + (((t & _LOW32) + g0 * b1) >> _32)
    # y = g_high cp, both words.
    t = ((g2 * b0) >> _32) + g3 * b0
    y_high = g3 * b1 + (t >> _32) + (((t & _LOW32) + g2 * b1) >> _32)
    y_low = g_high * cp
    middle = y_low + x_high
    return (y_high + (middle < y_low)) | (middle > 1)


def _shortest_digits(bits: np.ndarray):
    """``(s, k)``: for each positive finite double (given by its bits) the
    shortest integer s, nearest among the shortest (ties to even), with
    s 10^k inside the double's rounding interval.  s may end in zeros."""
    biased = bits >> _U64(52)
    fraction = bits & _U64((1 << 52) - 1)
    normal = biased > 0
    c = fraction | (normal.astype(_U64) << _U64(52))
    q = biased.astype(np.int64) - 1075 + ~normal  # binary exponent: x = c 2^q
    closer = (fraction == 0) & (biased > 1)  # the interval's lower half is half as wide
    # floor(log10(2^q)), or floor(log10(3/4 2^q)) when closer; then h in [1, 4].
    k = (q * 1262611 - closer * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(_U64)
    g = [limb.take(-k - _K_MIN) for limb in _pow10_limbs()]
    cb = c << _U64(2)
    odd = c & _U64(1)  # an odd c excludes the interval's ends
    vb = _round_to_odd(*g, cb << h)
    lower = _round_to_odd(*g, (cb - _U64(2) + closer) << h) + odd
    upper = _round_to_odd(*g, (cb + _U64(2)) << h) - odd
    s = vb >> _U64(2)
    # One digit fewer: s' = s // 10 or s' + 1, if exactly one is inside.
    sp = s // _U64(10)
    sp40 = sp * _U64(40)
    up_in, wp_in = lower <= sp40, sp40 + _U64(40) <= upper
    shorter = (s >= _U64(10)) & (up_in != wp_in)
    # Otherwise s or s + 1, whichever alone is inside, else the nearer.
    s4 = s << _U64(2)
    u_in, w_in = lower <= s4, s4 + _U64(4) <= upper
    round_up = vb + (s & _U64(1)) > s4 + _U64(2)
    digits = np.where(shorter, sp + wp_in, s + np.where(u_in != w_in, w_in, round_up))
    return digits, k + shorter


# The text of each value is gathered from a pool of 28 bytes, seven 4-byte
# rows of the ``text4`` table: a zero pad byte, ".", the significand's 18
# digits (first at _DIGIT), "0", "e", the exponent's sign, a pad byte, and the
# exponent's four digits (last at _EXP_END - 1).
_PAD, _DOT, _DIGIT, _ZERO, _E, _SIGN, _EXP_END, _POOL = 0, 1, 2, 20, 21, 22, 28, 28
_LEAD, _MARK = 10000, 10100  # text4 rows "\0.dd" (first two digits) and "0e+\0", "0e-\0"
_P10 = np.array([10**i for i in range(19)], dtype=_U64)
_FIXED_CODES = 20 * 18  # decimal point position -3..16 by 1..18 digits
_ZERO_CODE = _FIXED_CODES + 2 * 18  # after the exponent layouts: 1..18 digits by 2 or 3


@functools.cache
def _text_tables() -> tuple:
    """``(text4, sig, layouts, lengths)``, built at the first call.

    ``text4`` holds the pool rows.  ``sig[j * _MARK + v]`` is the number of
    significant digits when digit group j of the significand (0: the first
    two digits, then four each) is v and every later group is 0.  Row
    ``code`` of ``layouts`` lists the pool bytes of one layout, padded with
    _PAD, and ``lengths[code]`` counts them.
    """
    v = np.arange(10000)
    text4 = np.zeros((_MARK + 2, 4), dtype=np.uint8)
    text4[:10000] = ord("0") + v[:, None] // [1000, 100, 10, 1] % 10  # "dddd"
    text4[_LEAD:_MARK, 1:] = text4[:100, 1:]  # "\0.dd"
    text4[_LEAD:_MARK, 1] = ord(".")
    text4[_MARK:, :3] = np.frombuffer(b"0e+0e-", dtype=np.uint8).reshape(2, 3)
    trailing_zeros = sum(v % 10**i == 0 for i in range(1, 4))
    sig = np.zeros((5, _MARK), dtype=np.uint8)
    sig[:, :10000] = (np.array([[2], [6], [10], [14], [18]]) - trailing_zeros) * (v > 0)
    sig[0, 100:] = 0  # the first group holds two digits
    digits = list(range(_DIGIT, _DIGIT + 18))
    rows = []
    for point in range(-3, 17):  # fixed: x = 0.d1d2...dn 10^point
        for n in range(1, 19):
            if point <= 0:
                row = [_ZERO, _DOT] + [_ZERO] * -point + digits[:n]
            elif point < n:
                row = digits[:point] + [_DOT] + digits[point:n]
            else:
                row = digits[:n] + [_ZERO] * (point - n) + [_DOT, _ZERO]
            rows.append(row)
    for n in range(1, 19):  # d.ddde+XX or d.ddde+XXX
        mantissa = digits[:1] + ([_DOT] + digits[1:n] if n > 1 else [])
        for width in (2, 3):
            rows.append(mantissa + [_E, _SIGN] + list(range(_EXP_END - width, _EXP_END)))
    rows.append([_ZERO, _DOT, _ZERO])
    lengths = np.array([len(row) for row in rows])
    layouts = np.full((len(rows), lengths.max()), _PAD, dtype=np.intp)
    for code, row in enumerate(rows):
        layouts[code, : len(row)] = row
    return text4, sig.reshape(-1), layouts, lengths


def repr_ascii(values) -> np.ndarray:
    """``repr`` of each value of a 1-D float64 array of finite, non-negative
    values, as an ``(M, W)`` uint8 array of ASCII text padded with zero bytes
    (``W`` the longest text), so ``out.view(f"S{W}")`` reads back the bytes.

    Negative values, ``-0.0``, infinities and NaN raise ValueError.  The text
    is ``repr``'s: the shortest digits that read back as the same double,
    nearest among those (ties to even), in fixed notation when the decimal
    point's position is -3 to 16 (``.0`` on integral values, ``0.0`` for
    zero) and as ``d.ddde±XX`` otherwise.  The work goes _REPR_CHUNK values
    at a time.
    """
    values = np.ascontiguousarray(values)
    if values.dtype != np.float64 or values.ndim != 1:
        raise ValueError(f"repr_ascii needs a 1-D float64 array, got {values.dtype} {values.shape}")
    bits = values.view(_U64)
    bad = bits >= _U64(0x7FF0000000000000)  # a sign bit, an infinity or a NaN
    if bad.any():
        raise ValueError(
            f"repr_ascii needs finite values >= 0 (not -0.0), got {float(values[np.argmax(bad)])!r}"
        )
    runs = [slice(start, start + _REPR_CHUNK) for start in range(0, bits.size, _REPR_CHUNK)]
    parts = [_repr_chunk(bits[run]) for run in runs]
    out = np.zeros((bits.size, max((part.shape[1] for part in parts), default=0)), dtype=np.uint8)
    for run, part in zip(runs, parts):
        out[run, : part.shape[1]] = part
    return out


def _repr_chunk(bits: np.ndarray) -> np.ndarray:
    """:func:`repr_ascii` of the doubles with these (checked) bits."""
    _, _, layouts, lengths = _text_tables()
    pool, code = _pool_and_layout(*_shortest_digits(bits))
    code[bits == 0] = _ZERO_CODE  # zero ran through as c = 0, with s <= 1
    width = int(lengths.take(code).max())
    index = layouts[:, :width].take(code, axis=0)
    index += np.arange(0, bits.size * _POOL, _POOL)[:, None]
    return pool.reshape(-1).take(index)


def _pool_and_layout(digits: np.ndarray, k: np.ndarray):
    """``(pool, code)`` of the values s 10^k: each one's ``(m, _POOL)`` text
    pool and the code of its ``layouts`` row."""
    text4, sig, _, _ = _text_tables()
    count = np.searchsorted(_P10, digits, side="right")  # digits in s
    point = k + count  # x = 0.d1d2... 10^point
    exponent = point - 1
    # s scaled to 18 digits, in groups of 2, 4, 4, 4 and 4.
    norm = digits * _P10.take(18 - count)
    lead = norm // _U64(10**16)
    rest = norm - lead * _U64(10**16)
    high = rest // _U64(10**8)
    low = rest - high * _U64(10**8)
    high_hi, low_hi = high // _U64(10**4), low // _U64(10**4)
    groups = np.empty((7, digits.size), dtype=np.intp)
    groups[:5] = lead, high_hi, high - high_hi * _U64(10**4), low_hi, low - low_hi * _U64(10**4)
    n = sig.take(groups[:5] + np.arange(0, 5 * _MARK, _MARK)[:, None]).max(axis=0).astype(np.intp)
    groups[0] += _LEAD
    groups[5] = _MARK + (exponent < 0)
    groups[6] = np.abs(exponent)
    pool = text4.view(np.uint32).reshape(-1).take(groups.T).view(np.uint8)
    code = np.where(
        (point >= -3) & (point <= 16),
        (point + 3) * 18 + n - 1,
        _FIXED_CODES + 2 * n - 2 + (groups[6] >= 100),
    )
    return pool, code
