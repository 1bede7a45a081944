"""Command-line entry point.

Subcommands: ``tailor``, ``zanardi``, ``gaussian`` (``williamson``,
``entangle``), ``twobody`` (``sweep``) and ``scatter``.  Exit codes: 0 on
success, 2 when argparse rejects the command line, and 1 on every other
failure: computation and I/O errors, and the checks a command makes of its
own arguments (``zanardi`` without exactly one of ``--frame`` and
``--random-frames``, ``--factors 2,x``).  These are reported as one
machine-readable JSON line on stderr (with the warnings raised on the way,
if any).  Outputs are
deterministic: the same inputs (and ``--seed``, where randomness is
involved) give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import scattering, twobody
from ._checks import MAX_RANGE_POINTS, RANGE_STEP_SLACK
from .findim import Factorization, TpsFrame, entanglement_entropy, random_unitary
from .gaussian import _williamson, gaussian_entropy_across
from .serialization import (
    _frame_document,
    _write_atomic,
    dump_json,
    frame_from_dict,
    gaussian_state_from_dict,
    load_json,
    pure_state_from_dict,
)
from .tailor import TargetSpectrum, check_zanardi, subalgebra_generators, tailor_frame


def _fmt(x: float) -> str:
    """Fixed 12-significant-digit decimal rendering."""
    return f"{float(x):.12g}"


def _parse_int_pair(text: str) -> tuple[int, int]:
    try:
        first, second = (int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"expected two comma-separated integers, got {text!r}") from None
    return first, second


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_range(text: str) -> list[float]:
    """start:stop:step with both endpoints included; a bare number is itself."""
    try:
        bounds = [float(p) for p in text.split(":")]
    except ValueError:
        raise ValueError(f"expected START:STOP:STEP, got {text!r}") from None
    if len(bounds) == 1:
        return bounds
    if len(bounds) != 3:
        raise ValueError(f"expected START:STOP:STEP, got {text!r}")
    start, stop, step = bounds
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"START, STOP and STEP must be finite, got {text!r}")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"stop {stop} is below start {start}")
    steps = (stop - start) / step + RANGE_STEP_SLACK
    if not steps < MAX_RANGE_POINTS:  # an overflowing count is inf
        raise ValueError(f"START:STOP:STEP must give at most {MAX_RANGE_POINTS} points, got {text!r}")
    return [start + i * step for i in range(int(steps) + 1)]


def _row_format(prefix: str, width: int, end: str = "") -> str:
    """``_fmt``'s rendering of ``width`` floats as one format: %.12g formats as .12g does."""
    return prefix + ",".join(["%.12g"] * width) + end


def _write_csv(path: str, header: list[str], rows) -> None:
    """The header, then one line per row; the names and numbers need no CSV quoting."""
    row_format = _row_format("", len(header), "\n")

    def lines():
        yield ",".join(header) + "\n"
        for row in rows:
            yield row_format % tuple(map(float, row))

    _write_atomic(path, lines())


def _print_entropy(entropy: float, bits: bool) -> None:
    """The ``entropy_nats=`` line, and with ``--bits`` the ``entropy_bits=`` line."""
    print(f"entropy_nats={_fmt(entropy)}")
    if bits:
        print(f"entropy_bits={_fmt(entropy / math.log(2.0))}")


def _cmd_tailor(args) -> int:
    psi = pure_state_from_dict(load_json(args.state))
    k1, k2 = _parse_int_pair(args.factors)
    factorization = Factorization(psi.dim, (k1, k2))
    target = TargetSpectrum(np.array(_parse_float_list(args.target)))
    frame = tailor_frame(psi, factorization, target)
    entropy = entanglement_entropy(psi, frame)
    dump_json(args.out, _frame_document(frame))
    _print_entropy(entropy, args.bits)
    return 0


def _zanardi_lines(report) -> list[str]:
    return [
        f"independence={str(report.independence).lower()}",
        f"max_commutator_norm={_fmt(report.max_commutator_norm)}",
        f"completeness={str(report.completeness).lower()}",
        f"span_dimension={report.span_dimension}",
        f"full_dimension={report.full_dimension}",
        f"local_accessibility={report.local_accessibility}",
    ]


def _cmd_zanardi(args) -> int:
    if (args.frame is None) == (args.random_frames is None):
        raise ValueError("give exactly one of --frame or --random-frames")
    if args.frame is not None:
        frames = [frame_from_dict(load_json(args.frame))]
    else:
        if args.dim is None or args.factors is None:
            raise ValueError("--random-frames requires --dim and --factors")
        if args.random_frames < 1:
            raise ValueError(f"--random-frames must be at least 1, got {args.random_frames}")
        factorization = Factorization(args.dim, _parse_int_pair(args.factors))
        rng = np.random.default_rng(args.seed)
        frames = (
            TpsFrame(factorization, random_unitary(args.dim, rng))
            for _ in range(args.random_frames)
        )
    reports = [
        check_zanardi(subalgebra_generators(frame, "A"), subalgebra_generators(frame, "B"))
        for frame in frames
    ]
    if args.frame is not None:
        lines, payload = _zanardi_lines(reports[0]), asdict(reports[0])
    else:
        failures = sum(1 for r in reports if not (r.independence and r.completeness))
        lines = [
            f"frames_checked={len(reports)}",
            f"failures={failures}",
            f"max_commutator_norm={_fmt(max(r.max_commutator_norm for r in reports))}",
            f"local_accessibility={reports[0].local_accessibility}",
        ]
        payload = {
            "frames_checked": len(reports),
            "failures": failures,
            "reports": [asdict(r) for r in reports],
        }
    for line in lines:
        print(line)
    if args.out is not None:
        dump_json(args.out, payload)
    return 0


def _cmd_gaussian_williamson(args) -> int:
    state = gaussian_state_from_dict(load_json(args.infile))
    s, nu, residual = _williamson(state.cov)
    print(_row_format("nu=", state.n_modes) % tuple(nu.tolist()))
    row_format = _row_format("S[%d]=", 2 * state.n_modes)
    print("\n".join(row_format % (i, *row) for i, row in enumerate(s.matrix.tolist())))
    print(f"reconstruction_residual={_fmt(residual)}")
    print(f"symplectic_defect={_fmt(s.defect)}")
    if args.out is not None:
        dump_json(args.out, {"n_modes": state.n_modes, "S": s.matrix, "nu": nu})
    return 0


def _cmd_gaussian_entangle(args) -> int:
    state = gaussian_state_from_dict(load_json(args.infile))
    if state.n_modes < 2:
        raise ValueError(f"a mode cut needs at least two modes, but the state has {state.n_modes}")
    if not 0 < args.partition < state.n_modes:
        raise ValueError(
            f"--partition must be between 1 and {state.n_modes - 1}, got {args.partition}"
        )
    _print_entropy(gaussian_entropy_across(state, range(args.partition)), args.bits)
    return 0


def _cmd_twobody_sweep(args) -> int:
    kappas = _parse_range(args.kappa)
    interparticle, internal_external = twobody.coupling_sweep(args.m1, args.m2, args.omega, kappas)
    rows = zip(kappas, interparticle.tolist(), internal_external.tolist())
    _write_csv(args.out, ["kappa", "interparticle_entropy", "internal_external_entropy"], rows)
    return 0


def _cmd_scatter(args) -> int:
    n = args.sites
    center_a = args.ca if args.ca is not None else n / 4.0
    center_b = args.cb if args.cb is not None else 3.0 * n / 4.0
    config = scattering.LatticeConfig(
        n_sites=n,
        hopping=args.hop,
        interaction=args.g,
        packet_a=scattering.WavePacket(center_a, args.wa, args.ka),
        packet_b=scattering.WavePacket(center_b, args.wb, args.kb),
    )
    if args.times is not None:
        times = _parse_range(args.times)
    else:
        horizon = 2.5 * scattering.collision_time(config)
        if horizon == 0.0:
            raise ValueError("the packets start at the same site, so the default grid is t = 0 only; give --times")
        times = [i * horizon / 60.0 for i in range(61)]
    history = scattering.entanglement_history(config, times)
    _write_csv(args.out, ["t", "entropy_nats"], history)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpslab",
        description="Entanglement relative to observable-induced tensor product structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tailor = sub.add_parser("tailor", help="build a frame realizing a target Schmidt spectrum")
    tailor.add_argument("--state", required=True, help="pure-state JSON file")
    tailor.add_argument("--factors", required=True, help="K1,K2 with K1*K2 = dim")
    tailor.add_argument("--target", required=True, help="descending probabilities, e.g. 0.7,0.3")
    tailor.add_argument("--out", required=True, help="output frame JSON file")
    tailor.add_argument("--bits", action="store_true", help="also report the entropy in bits")
    tailor.set_defaults(func=_cmd_tailor)

    zanardi = sub.add_parser("zanardi", help="check subsystem independence and completeness")
    zanardi.add_argument("--frame", help="frame JSON file to check")
    zanardi.add_argument("--random-frames", type=int, help="check this many random frames")
    zanardi.add_argument("--dim", type=int, help="dimension for --random-frames")
    zanardi.add_argument("--factors", help="K1,K2 for --random-frames")
    zanardi.add_argument("--seed", type=int, default=0, help="seed for --random-frames")
    zanardi.add_argument("--out", help="optional JSON report file")
    zanardi.set_defaults(func=_cmd_zanardi)

    gaussian = sub.add_parser("gaussian", help="Gaussian-state computations")
    gsub = gaussian.add_subparsers(dest="gaussian_command", required=True)
    gw = gsub.add_parser("williamson", help="thermal normal form of a covariance matrix")
    gw.add_argument("--in", dest="infile", required=True, help="Gaussian state JSON file")
    gw.add_argument("--out", help="optional JSON file for S and nu")
    gw.set_defaults(func=_cmd_gaussian_williamson)
    ge = gsub.add_parser("entangle", help="entanglement entropy across a mode cut")
    ge.add_argument("--in", dest="infile", required=True, help="Gaussian state JSON file")
    ge.add_argument("--partition", type=int, required=True, help="modes on side A (first P)")
    ge.add_argument("--bits", action="store_true", help="also report the entropy in bits")
    ge.set_defaults(func=_cmd_gaussian_entangle)

    tb = sub.add_parser("twobody", help="two-body oscillator experiments")
    tsub = tb.add_subparsers(dest="twobody_command", required=True)
    sweep = tsub.add_parser("sweep", help="entanglement along a coupling sweep")
    sweep.add_argument("--m1", type=float, required=True)
    sweep.add_argument("--m2", type=float, required=True)
    sweep.add_argument("--omega", type=float, required=True)
    sweep.add_argument("--kappa", required=True, help="coupling value or START:STOP:STEP")
    sweep.add_argument("--out", required=True, help="output CSV file")
    sweep.set_defaults(func=_cmd_twobody_sweep)

    scatter = sub.add_parser("scatter", help="lattice scattering entanglement history")
    scatter.add_argument("--sites", type=int, required=True)
    scatter.add_argument("--hop", type=float, required=True)
    scatter.add_argument("--g", type=float, required=True)
    scatter.add_argument("--ka", type=float, required=True, help="packet A quasi-momentum")
    scatter.add_argument("--kb", type=float, required=True, help="packet B quasi-momentum")
    scatter.add_argument("--ca", type=float, help="packet A center (default: sites/4)")
    scatter.add_argument("--cb", type=float, help="packet B center (default: 3*sites/4)")
    scatter.add_argument("--wa", type=float, default=2.0, help="packet A width in sites")
    scatter.add_argument("--wb", type=float, default=2.0, help="packet B width in sites")
    scatter.add_argument("--times", help="sample times START:STOP:STEP (default: heuristic)")
    scatter.add_argument("--out", required=True, help="output CSV file")
    scatter.set_defaults(func=_cmd_scatter)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # warnings are held while the command runs: on failure they join the one
    # JSON line, on success they are shown as they would have been
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.func(args)
        except Exception as exc:  # computation or I/O failure: one parseable line
            report = {"error": type(exc).__name__, "message": str(exc)}
            if caught:
                report["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
            print(json.dumps(report), file=sys.stderr)
            return 1
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
