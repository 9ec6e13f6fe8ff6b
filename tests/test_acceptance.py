"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import time
from functools import reduce

import numpy as np

from kgen import bandscan, clifford, generators, kmaps
from kgen.charge import chern_2, chern_sign_weyl, winding_1, winding_3
from kgen.cli import main
from kgen.fields import EUCLIDEAN, SPHERE, MatrixPolyField

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [-1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def report(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({description}): {status}{suffix}")
    assert passed, f"criterion {number} failed: {description} {suffix}"


def dirac1():
    return generators.dirac_phase_field(1, clifford.build_rep(1, clifford.LEFT))


def weyl2():
    return generators.weyl_field(2, clifford.build_rep(3, clifford.LEFT))


def dirac3():
    return generators.dirac_phase_field(3, clifford.build_rep(3, clifford.LEFT))


def test_criterion_1_clifford_suite():
    start = time.perf_counter()
    passed = True
    for d in range(1, 10):
        variants = (clifford.LEFT, clifford.RIGHT) if d % 2 else (None,)
        for hand in variants:
            rep = clifford.build_rep(d) if hand is None else clifford.build_rep(d, hand)
            eye = np.eye(rep.N)
            for g in rep.gammas:
                passed &= np.array_equal(g, g.conj().T)
                passed &= np.array_equal(g @ g, eye)
            for i in range(d):
                for j in range(i + 1, d):
                    anti = rep.gammas[i] @ rep.gammas[j] + rep.gammas[j] @ rep.gammas[i]
                    passed &= not np.any(anti)
            if d % 2:
                lam = (1 if hand == clifford.LEFT else -1) * 1j ** ((d - 1) // 2)
                prod = reduce(np.matmul, rep.gammas)
                passed &= np.array_equal(prod, lam * eye)
            passed &= clifford.verify_rep(rep).max_residual == 0.0
    elapsed = time.perf_counter() - start
    passed &= elapsed < 1.0
    report(1, "Clifford residuals exactly 0.0 for d=1..9, both handedness", bool(passed),
           f"runtime {elapsed:.3f}s")


def test_criterion_2_index_identity(tmp_path):
    start = time.perf_counter()
    results = {}
    for d in (1, 3):
        out = tmp_path / f"index{d}.json"
        code = main(
            ["verify", "--suite", "index", "--d", str(d), "--samples", "1000",
             "--seed", "0", "--out", str(out)]
        )
        results[d] = (code, json.loads(out.read_text()))
    elapsed = time.perf_counter() - start
    passed = all(
        code == 0 and rep["pass"] and rep["max_residual"] < 1e-10 and rep["samples"] >= 1000
        for code, rep in results.values()
    ) and elapsed < 5.0
    detail = ", ".join(f"d={d}: {rep['max_residual']:.2e}" for d, (_, rep) in results.items())
    report(2, "index identity residual < 1e-10 for d=1,3", bool(passed),
           f"{detail}, runtime {elapsed:.2f}s")


def test_criterion_3_exp_identity(tmp_path):
    start = time.perf_counter()
    results = {}
    for d in (2, 4):
        out = tmp_path / f"exp{d}.json"
        code = main(
            ["verify", "--suite", "exp", "--d", str(d), "--samples", "1000",
             "--seed", "0", "--out", str(out)]
        )
        results[d] = (code, json.loads(out.read_text()))
    elapsed = time.perf_counter() - start
    passed = all(
        code == 0 and rep["pass"] and rep["max_residual"] < 1e-10
        for code, rep in results.values()
    ) and elapsed < 5.0
    detail = ", ".join(f"d={d}: {rep['max_residual']:.2e}" for d, (_, rep) in results.items())
    report(3, "exponential identity residual < 1e-10 for d=2,4", bool(passed),
           f"{detail}, runtime {elapsed:.2f}s")


def test_criterion_4_homotopy_invertible():
    scan_report = kmaps.homotopy_scan(d=2, samples=500, seed=0)
    passed = (
        scan_report["pass"]
        and scan_report["min_singular_value"] > 1e-3
        and (scan_report["t_points"], scan_report["samples"]) == (11, 500)
    )
    report(4, "deformation invertible over 11 x 500 grid", bool(passed),
           f"min singular value {scan_report['min_singular_value']:.4f}")


def test_criterion_5_generator_charges():
    start = time.perf_counter()
    w1 = winding_1(dirac1(), resolution=256)
    c2 = chern_2(weyl2(), fermi=0.0, resolution=64)
    w3 = winding_3(dirac3(), resolution=24)
    elapsed = time.perf_counter() - start
    checks = [
        abs(w1.charge) == 1 and w1.residual < 1e-8,
        abs(c2.charge) == 1 and c2.residual < 1e-6,
        abs(w3.charge) == 1 and w3.residual < 1e-4,
    ]
    for result in (w1, c2, w3):
        raw_n, raw_2n = result.convergence_pair
        checks.append(abs(raw_2n - result.charge) <= abs(raw_n - result.charge) + 1e-9)
    checks.append(elapsed < 30.0)
    report(5, "generator charges +-1 with stated residuals and convergence",
           all(checks),
           f"w1={w1.raw:+.2e}, c2={c2.raw:+.6f}, w3={w3.raw:+.6f}, runtime {elapsed:.1f}s")


def test_criterion_6_charge_algebra():
    rng = np.random.default_rng(123)
    passed = True

    # Additivity under direct sums.
    passed &= winding_1(dirac1().direct_sum(dirac1())).charge == 2 * winding_1(dirac1()).charge
    passed &= chern_2(weyl2().direct_sum(weyl2())).charge == 2 * chern_2(weyl2()).charge
    passed &= (
        winding_3(dirac3().direct_sum(dirac3()), resolution=16).charge
        == 2 * winding_3(dirac3(), resolution=16).charge
    )

    # Negation under reflection of the first coordinate.
    passed &= winding_1(dirac1().reflect(0)).charge == -winding_1(dirac1()).charge
    passed &= chern_2(weyl2().reflect(0)).charge == -chern_2(weyl2()).charge
    passed &= (
        winding_3(dirac3().reflect(0), resolution=16).charge
        == -winding_3(dirac3(), resolution=16).charge
    )

    # Invariance under constant unitary conjugation.
    for field, fn, kwargs in (
        (dirac1(), winding_1, {}),
        (weyl2(), chern_2, {}),
        (dirac3(), winding_3, {"resolution": 16}),
    ):
        n = field.size
        w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        passed &= fn(field.conjugated_by(w), **kwargs).charge == fn(field, **kwargs).charge

    # Twenty random perturbations of relative size <= 0.1 (the generator gap is 1).
    def bump(ambient, size):
        terms = {}
        alphas = [tuple(0 for _ in range(ambient))] + [
            tuple(1 if k == j else 0 for k in range(ambient)) for j in range(ambient)
        ]
        for alpha in alphas:
            mat = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            terms[alpha] = 0.5 * (mat + mat.conj().T)
        norm = sum(np.linalg.norm(m, 2) for m in terms.values())
        return {a: 0.1 * m / norm for a, m in terms.items()}

    for _ in range(10):
        perturbed = dirac1().plus(MatrixPolyField(2, 1, bump(2, 1), SPHERE))
        passed &= winding_1(perturbed).charge == winding_1(dirac1()).charge
    for _ in range(10):
        perturbed = weyl2().plus(MatrixPolyField(3, 2, bump(3, 2), SPHERE))
        passed &= chern_2(perturbed).charge == chern_sign_weyl()

    report(6, "charge algebra: additivity, reflection, conjugation, 20 perturbations",
           bool(passed))


def test_criterion_7_band_phenomenology():
    terms = {
        (1, 0, 0): SIGMA[0],
        (0, 1, 0): SIGMA[1],
        (0, 0, 2): SIGMA[2],
        (0, 0, 0): -0.25 * SIGMA[2],
    }
    two_weyl = bandscan.BandModel(
        MatrixPolyField(3, 2, terms, EUCLIDEAN), name="two-weyl"
    )
    reports = bandscan.scan(two_weyl, [(-1, 1)] * 3)
    locations = [np.array(r.location) for r in reports]
    charges = [r.charge.charge for r in reports]
    ok_scan = (
        len(reports) == 2
        and np.linalg.norm(locations[0] - [0, 0, -0.5]) < 1e-5
        and np.linalg.norm(locations[1] - [0, 0, 0.5]) < 1e-5
        and sum(charges) == 0
        and sorted(abs(c) for c in charges) == [1, 1]
    )

    big = bandscan.charge_crossing(two_weyl, [0.0, 0.0, 0.0], radius=0.9)
    ok_big = big.charge.charge == 0 and abs(big.charge.raw) < 0.01

    massive = bandscan.BandModel(
        MatrixPolyField(
            2, 2, {(1, 0): SIGMA[0], (0, 1): SIGMA[1], (0, 0): 0.1 * SIGMA[2]},
            EUCLIDEAN,
        ),
        name="massive",
    )
    ok_massive = bandscan.scan(massive, [(-1, 1)] * 2) == []
    gap_value, _ = bandscan.min_gap(massive, [(-1, 1)] * 2)
    ok_massive &= abs(gap_value - 0.1) < 1e-9

    chiral = bandscan.BandModel(
        MatrixPolyField(2, 2, {(1, 0): SIGMA[0], (0, 1): SIGMA[1]}, EUCLIDEAN),
        chiral=SIGMA[2],
    )
    base_charge = bandscan.charge_crossing(chiral, [0.0, 0.0], radius=0.6).charge.charge
    ok_chiral = abs(base_charge) == 1
    rng = np.random.default_rng(77)
    for _ in range(10):
        c = rng.uniform(-0.3, 0.3, 2)
        perturbed_terms = {
            (1, 0): SIGMA[0],
            (0, 1): SIGMA[1],
            (0, 0): c[0] * SIGMA[0] + c[1] * SIGMA[1],
        }
        perturbed = bandscan.BandModel(
            MatrixPolyField(2, 2, perturbed_terms, EUCLIDEAN),
            chiral=SIGMA[2],
        )
        ok_chiral &= (
            bandscan.charge_crossing(perturbed, [0.0, 0.0], radius=0.6).charge.charge
            == base_charge
        )

    passed = ok_scan and ok_big and ok_massive and ok_chiral
    report(7, "band phenomenology: two-Weyl, charge conservation, mass gap, chiral protection",
           bool(passed),
           f"charges {charges}, big-sphere raw {big.charge.raw:+.2e}, min gap {gap_value:.10f}")


def test_criterion_8_fredholm_profile():
    weyl = generators.weyl_field(2, clifford.build_rep(3, clifford.LEFT), domain=EUCLIDEAN)
    dirac = generators.dirac_phase_field(1, clifford.build_rep(1, clifford.LEFT), domain=EUCLIDEAN)
    worst_profile = 0.0
    for field in (weyl, dirac):
        for r, value in generators.compact_resolvent_profile(field, [0.0, 1.0, 7.0]):
            worst_profile = max(worst_profile, abs(value - 1.0 / (1.0 + r * r)))

    rng = np.random.default_rng(5)
    worst_defect = 0.0
    for field in (weyl, dirac):
        transform = generators.bounded_transform(field)
        for _ in range(25):
            x = 3.0 * rng.standard_normal(field.ambient_dim)
            f = transform.evaluate(x)
            defect = np.linalg.norm(np.eye(field.size) - f.conj().T @ f, 2)
            worst_defect = max(worst_defect, abs(defect - 1.0 / (1.0 + float(np.dot(x, x)))))

    passed = worst_profile < 1e-12 and worst_defect < 1e-12
    report(8, "resolvent profile and bounded-transform identity within 1e-12",
           bool(passed), f"profile {worst_profile:.2e}, defect {worst_defect:.2e}")


def test_criterion_9_determinism(tmp_path):
    terms = {
        (1, 0, 0): SIGMA[0],
        (0, 1, 0): SIGMA[1],
        (0, 0, 2): SIGMA[2],
        (0, 0, 0): -0.25 * SIGMA[2],
    }
    model = bandscan.BandModel(
        MatrixPolyField(3, 2, terms, EUCLIDEAN), name="two-weyl"
    )
    model_path = tmp_path / "model.json"
    bandscan.save_model(model, model_path)

    passed = True
    pairs = []
    for args in (
        ["verify", "--suite", "index", "--d", "1", "--samples", "300", "--seed", "11"],
        ["verify", "--suite", "homotopy", "--d", "2", "--samples", "100", "--seed", "3"],
        ["scan", str(model_path), "--box", "-1", "1", "--grid", "12"],
        ["clifford", "--d", "5", "--handedness", "right"],
    ):
        a = tmp_path / f"a{len(pairs)}.json"
        b = tmp_path / f"b{len(pairs)}.json"
        code_a = main([*args, "--out", str(a)])
        code_b = main([*args, "--out", str(b)])
        passed &= code_a == code_b
        passed &= a.read_bytes() == b.read_bytes()
        pairs.append(args[0])
    report(9, "byte-identical outputs for repeated runs", bool(passed),
           f"commands: {', '.join(pairs)}")
