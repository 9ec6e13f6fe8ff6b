"""Batch command-line interface.

Subcommands: clifford, generator, verify, charge, scan.  All output is JSON
(CSV for gap maps) written to stdout or --out, with sorted keys and seeded
randomness so identical invocations produce identical bytes.  Exit codes:
0 success/PASS, 1 numerical failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys

import numpy as np

from . import bandscan, clifford, generators, kmaps
from .errors import KgenError
from .serialize import json_text, matrix_to_json

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _output(path: str, mode: str = "w"):
    """Text file at ``path`` open in ``mode``; failing to open or write it is a usage error."""
    try:
        with open(path, mode, encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with _output(out) as handle:
            handle.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit(json_text(payload), out)


def _refuse_shared_paths(named) -> None:
    """Refuse, as a usage error, two of the ``(label, path)`` pairs (``None``
    paths skipped) that name one file, so that no output overwrites the model
    or the other output.  Paths that both exist are compared with
    ``os.path.samefile`` (hard links included), others by ``os.path.realpath``."""
    named = [(label, path) for label, path in named if path is not None]
    for (label_a, a), (label_b, b) in itertools.combinations(named, 2):
        if os.path.exists(a) and os.path.exists(b):
            same = os.path.samefile(a, b)
        else:
            same = os.path.realpath(a) == os.path.realpath(b)
        if same:
            raise UsageError(f"{label_a} {a} and {label_b} {b} name the same file")


def _cmd_clifford(args) -> int:
    rep = clifford.build_rep(args.d, args.handedness)
    _emit_json(rep.to_payload(), args.out)
    return EXIT_OK


def _generator_field(kind: str, d: int, handedness: str):
    """``(field, grading)``; the generator functions refuse a d of the wrong
    parity, then one whose representation would exceed ``clifford.MAX_D``."""
    if kind == "dirac-hamiltonian":
        return generators.dirac_hamiltonian_field(d, handedness)
    if kind == "weyl":
        return generators.weyl_field(d, handedness), None
    return generators.dirac_phase_field(d, handedness), None


def _cmd_generator(args) -> int:
    field, grading = _generator_field(args.kind, args.d, args.handedness)

    if args.point is not None:
        if len(args.point) != field.ambient_dim:
            raise UsageError(
                f"--point needs {field.ambient_dim} coordinates, got {len(args.point)}"
            )
        if not np.all(np.isfinite(args.point)):
            raise UsageError(f"--point must be finite, got {args.point}")
        value = field.evaluate(np.asarray(args.point))
        _emit_json({"point": list(args.point), "value": matrix_to_json(value)}, args.out)
        return EXIT_OK

    name = f"{args.kind}-d{args.d}"
    if field.selfadjoint and field.ambient_dim in (2, 3):
        model = bandscan.BandModel(
            field, chiral=None if grading is None else grading.matrix, name=name
        )
        _emit_json(model.to_payload(), args.out)
    else:
        # A band model is Hermitian with 2 or 3 variables; other fields (the
        # Dirac phase, and generators in more variables) use the field schema.
        payload = field.to_payload()
        payload["name"] = name
        _emit_json(payload, args.out)
    return EXIT_OK


# Each verify suite: the flags it reads and its function's module and name, looked
# up at each call (so a wrapper on the attribute sees it); its signature holds the defaults.
VERIFY_SUITES = {
    "clifford": (("d",), clifford, "verify_reps"),
    "index": (("d", "samples", "seed"), kmaps, "verify_index_identity"),
    "exp": (("d", "samples", "seed"), kmaps, "verify_exp_identity"),
    "homotopy": (("d", "samples", "seed"), kmaps, "homotopy_scan"),
    "fredholm": (("samples", "seed"), generators, "verify_fredholm"),
}


def _cmd_verify(args) -> int:
    flags, module, name = VERIFY_SUITES[args.suite]
    given = {flag: getattr(args, flag) for flag in ("d", "samples", "seed")
             if getattr(args, flag) is not None}
    unread = [f"--{flag}" for flag in given if flag not in flags]
    if unread:
        raise UsageError(f"--suite {args.suite} does not read {', '.join(unread)}")
    report = getattr(module, name)(**given)
    _emit_json(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_NUMERICAL


def _cmd_charge(args) -> int:
    _refuse_shared_paths([("model", args.model), ("--out", args.out)])
    model = bandscan.load_model(args.model)
    center = args.center if args.center is not None else [0.0] * model.dimension
    if len(center) != model.dimension:
        raise UsageError(f"--center needs {model.dimension} coordinates")
    report = bandscan.charge_crossing(
        model, np.asarray(center, dtype=float), args.radius, resolution=args.resolution
    )
    result = report.charge
    _emit_json(result.to_payload(), args.out)
    if not result.converged:
        sys.stderr.write(
            "charge failed the integrality check (residual "
            f"{result.residual:.3g}); the enclosure may touch another crossing\n"
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def _parse_box(values, dim: int):
    if values is None:
        return [(-1.0, 1.0)] * dim
    if len(values) == 2:
        lo, hi = values
        return [(lo, hi)] * dim
    if len(values) == 2 * dim:
        return [(values[2 * i], values[2 * i + 1]) for i in range(dim)]
    raise UsageError(
        f"--box needs 2 or {2 * dim} floats (lo hi per axis), got {len(values)}"
    )


def _write_gap_map(handle, axes, gaps: np.ndarray) -> None:
    """Write the ``(axes, gaps)`` of ``bandscan.gap_map`` to ``handle`` as CSV.

    Rows run over the grid in C order (last coordinate fastest).  Each axis
    value is formatted once, the n^(dim-1) trailing coordinate strings are
    joined once, and only the gaps are formatted per row.  A leading-axis
    slab of k = n^(dim-1) rows is one ``"".join`` of 4k parts (lead, tail,
    gap, newline) held in one list, in which only the lead and gap slots
    change from slab to slab; so no per-row string is built.  Each slab is
    written as soon as it is joined, so the file costs one slab of text, the
    part list, the trailing strings and the gap array (one float per node),
    and no row array.  Floats are ``repr``, as ``csv.writer`` would write them.
    """
    coords = [[repr(v) + "," for v in axis.tolist()] for axis in axes]
    tails = ["".join(parts) for parts in itertools.product(*coords[1:])]
    handle.write(",".join([f"x{i + 1}" for i in range(gaps.ndim)] + ["gap"]) + "\n")
    k = len(tails)
    parts = [""] * (4 * k)
    parts[1::4] = tails
    parts[3::4] = ["\n"] * k
    for lead, slab in zip(coords[0], gaps):
        parts[0::4] = [lead] * k
        parts[2::4] = map(repr, slab.ravel().tolist())
        handle.write("".join(parts))


def _cmd_scan(args) -> int:
    if args.threads < 1:
        raise UsageError("thread count must be >= 1")
    _refuse_shared_paths(
        [("model", args.model), ("--out", args.out), ("--gap-map", args.gap_map)]
    )
    model = bandscan.load_model(args.model)
    box = _parse_box(args.box, model.dimension)
    created = False
    if args.gap_map is not None:
        # Probe the path before the search, so one that cannot be written fails
        # at once; append mode leaves an existing map intact if the scan fails,
        # and a map that the probe created is removed again.
        created = not os.path.exists(args.gap_map)
        with _output(args.gap_map, "a"):
            pass
    try:
        reports = bandscan.scan(model, box, args.grid, args.resolution)
        _emit_json([r.to_payload() for r in reports], args.out)
        if args.gap_map is not None:
            axes, gaps = bandscan.gap_map(model, box, args.grid)
            with _output(args.gap_map) as gap_file:
                _write_gap_map(gap_file, axes, gaps)
    except BaseException:
        if created:
            os.remove(args.gap_map)
        raise

    if any(r.error is not None for r in reports):
        return EXIT_NUMERICAL
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Parser that reads every token ``float()`` accepts as a value, not an option.

    argparse itself takes only ``-1`` and ``-.5``-style tokens for negative
    numbers, so ``--box -1e-3 1`` or ``--box -inf 1`` would fail with "expected
    at least one argument" instead of reaching the checks on the values.
    Subparsers inherit the class.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``kgen`` argument parser, built at the first call and then shared:
    every call, and so every :func:`main` call, returns the same parser, which
    callers must not modify.  Building it is the costly part of a short
    command (each ``add_argument`` makes a help formatter that queries the
    terminal size); the parser keeps no state from one parse to the next.  Each
    subcommand's ``set_defaults(func=...)`` binds its ``_cmd_*`` function once
    per process, so a later rebinding of the module attribute is not seen.
    """
    parser = _Parser(
        prog="kgen",
        description=(
            "Clifford representations, generator fields on spheres, K-theory "
            "connecting-map verification, and topological charges of band models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clifford", help="emit a Clifford representation as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--handedness", choices=(clifford.LEFT, clifford.RIGHT), default=clifford.LEFT)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_clifford)

    p = sub.add_parser("generator", help="emit a generator field or evaluate it at a point")
    p.add_argument("--kind", choices=("weyl", "dirac-phase", "dirac-hamiltonian"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--handedness", choices=(clifford.LEFT, clifford.RIGHT), default=clifford.LEFT)
    p.add_argument("--point", type=float, nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generator)

    p = sub.add_parser("verify", help="run a verification suite; exit 0 iff PASS")
    p.add_argument("--suite", choices=tuple(VERIFY_SUITES), required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("charge", help="charge of one enclosing sphere in a band model")
    p.add_argument("model")
    p.add_argument("--center", type=float, nargs="+")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--resolution", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_charge)

    p = sub.add_parser("scan", help="find and charge all band crossings in a box")
    p.add_argument("model")
    p.add_argument("--box", type=float, nargs="+")
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--resolution", type=int)
    # Accepted for old callers and ignored: crossings are charged serially.
    p.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--gap-map")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:  # e.g. verify --samples 10^12: 14.6 TiB of sample points
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_USAGE
    except KgenError as exc:
        sys.stderr.write(f"numerical failure: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
