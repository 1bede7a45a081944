"""Traced replay of each workload through tpslab's public functions.

A replay pass does what the CLI commands of one pass do, but calls the
library's public functions one by one from here, each inside a span, so
that the time of every layer shows.  It writes the same output files and
standard output as the CLI, which the runner compares byte for byte.

Spans marked ``probe`` time a call the CLI does not make on its own (the
bare eigendecomposition, the ground state, a second covariance
validation); they split a layer's time and are left out of the layer sum
that ``cli.overhead_s`` is taken against.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from tpslab import scattering
from tpslab.cli import build_parser
from tpslab.findim import Factorization, PureState, TpsFrame, entanglement_entropy, random_unitary
from tpslab.gaussian import CovarianceMatrix, gaussian_entropy_across, symplectic_form, williamson
from tpslab.serialization import (
    dump_json,
    frame_from_dict,
    frame_to_dict,
    gaussian_state_from_dict,
    load_json,
    pure_state_from_dict,
)
from tpslab.tailor import TargetSpectrum, check_zanardi, subalgebra_generators, tailor_frame
from tpslab.twobody import TwoBodyParams, ground_state_covariance
from tpslab.twobody import internal_external_entanglement, interparticle_entanglement

MB = 1e6
COMPLEX_BYTES = 16


class Tracer:
    """In-memory spans: name, start, end, parent index and attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    return buf.getvalue()


def _parse_range(text: str) -> list[float]:
    start, stop, step = (float(p) for p in text.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _pair(text: str) -> tuple[int, int]:
    a, b = text.split(",")
    return int(a), int(b)


def _dump(tracer: Tracer, path: str, payload) -> None:
    """``dump_json`` of ``payload()``, which may call a ``*_to_dict`` function."""
    with tracer.span("serialization.dump") as attrs:
        dump_json(path, payload())
        attrs["bytes"] = os.path.getsize(path)


def _entropy_line(entropy: float) -> str:
    return f"entropy_nats={_fmt(entropy)}\n"


def _scatter(tracer: Tracer, args) -> str:
    n = args.sites
    config = scattering.LatticeConfig(
        n_sites=n,
        hopping=args.hop,
        interaction=args.g,
        packet_a=scattering.WavePacket(n / 4.0 if args.ca is None else args.ca, args.wa, args.ka),
        packet_b=scattering.WavePacket(3.0 * n / 4.0 if args.cb is None else args.cb, args.wb, args.kb),
    )
    horizon = 2.5 * scattering.collision_time(config)
    times = [i * horizon / 60.0 for i in range(61)]
    with tracer.span("scattering.build") as attrs:
        psi0 = scattering.build_product_in_state(config)
        h = scattering.build_hamiltonian(config)
        attrs["hamiltonian_bytes"] = h.nbytes
    with tracer.span("findim.identity_frame") as attrs:
        frame = TpsFrame.identity(Factorization(n * n, (n, n)))
        attrs["frame_bytes"] = frame.frame.nbytes
    with tracer.span("scattering.evolve"):
        states = scattering.evolve(psi0, h, times)
    rows = []
    for t, state in zip(times, states):
        with tracer.span("findim.entropy"):
            amps = state.amplitudes / np.linalg.norm(state.amplitudes)
            entropy = entanglement_entropy(PureState(n * n, amps), frame)
        rows.append([float(t), entropy])
    # after the CLI's own sequence, so that its calls see the same heap
    del states
    with tracer.span("scattering.diagonalize", probe=True):
        scattering.evolve(psi0, h, [])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_text(["t", "entropy_nats"], rows))
    return ""


def _tailor(tracer: Tracer, args) -> str:
    with tracer.span("serialization.load"):
        psi = pure_state_from_dict(load_json(args.state))
    factorization = Factorization(psi.dim, _pair(args.factors))
    target = TargetSpectrum(np.array([float(p) for p in args.target.split(",") if p != ""]))
    with tracer.span("tailor.tailor_frame"):
        frame = tailor_frame(psi, factorization, target)
    with tracer.span("findim.entropy"):
        entropy = entanglement_entropy(psi, frame)
    _dump(tracer, args.out, lambda: frame_to_dict(frame))
    return _entropy_line(entropy)


def _zanardi_check(tracer: Tracer, frame: TpsFrame):
    with tracer.span("tailor.subalgebra_generators"):
        gens_a = subalgebra_generators(frame, "A")
        gens_b = subalgebra_generators(frame, "B")
    product_bytes = frame.d**2 * len(gens_a.generators) * len(gens_b.generators) * COMPLEX_BYTES
    with tracer.span("tailor.check_zanardi", product_bytes=product_bytes):
        return check_zanardi(gens_a, gens_b)


def _zanardi(tracer: Tracer, args) -> str:
    if args.frame is not None:
        with tracer.span("serialization.load"):
            frame = frame_from_dict(load_json(args.frame))
        report = _zanardi_check(tracer, frame)
        lines = [
            f"independence={str(report.independence).lower()}",
            f"max_commutator_norm={_fmt(report.max_commutator_norm)}",
            f"completeness={str(report.completeness).lower()}",
            f"span_dimension={report.span_dimension}",
            f"full_dimension={report.full_dimension}",
            f"local_accessibility={report.local_accessibility}",
        ]
        payload = asdict(report)
    else:
        factorization = Factorization(args.dim, _pair(args.factors))
        rng = np.random.default_rng(args.seed)
        reports = []
        for _ in range(args.random_frames):
            with tracer.span("findim.random_unitary"):
                u = random_unitary(args.dim, rng)
            with tracer.span("findim.frame_validate"):
                frame = TpsFrame(factorization, u)
            reports.append(_zanardi_check(tracer, frame))
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
    _dump(tracer, args.out, lambda: payload)
    return "".join(line + "\n" for line in lines)


def _load_gaussian(tracer: Tracer, path: str):
    with tracer.span("serialization.load"):
        state = gaussian_state_from_dict(load_json(path))
    with tracer.span("gaussian.covariance_validate", probe=True):
        CovarianceMatrix(state.n_modes, state.cov.sigma)
    return state


def _williamson(tracer: Tracer, args) -> str:
    state = _load_gaussian(tracer, args.infile)
    with tracer.span("gaussian.williamson"):
        s, nu = williamson(state.cov)
    normal_form = np.diag(np.repeat(nu, 2))
    residual = np.linalg.norm(s.matrix @ state.cov.sigma @ s.matrix.T - normal_form)
    residual /= np.linalg.norm(state.cov.sigma)
    omega = symplectic_form(state.n_modes)
    defect = np.linalg.norm(s.matrix.T @ omega @ s.matrix - omega)
    lines = ["nu=" + ",".join(_fmt(v) for v in nu)]
    lines += [f"S[{i}]=" + ",".join(_fmt(x) for x in row) for i, row in enumerate(s.matrix)]
    lines += [f"reconstruction_residual={_fmt(residual)}", f"symplectic_defect={_fmt(defect)}"]
    payload = {
        "n_modes": state.n_modes,
        "S": [[float(x) for x in row] for row in s.matrix],
        "nu": [float(v) for v in nu],
    }
    _dump(tracer, args.out, lambda: payload)
    return "".join(line + "\n" for line in lines)


def _entangle(tracer: Tracer, args) -> str:
    state = _load_gaussian(tracer, args.infile)
    with tracer.span("gaussian.entropy_across"):
        entropy = gaussian_entropy_across(state, range(args.partition))
    return _entropy_line(entropy)


def _sweep(tracer: Tracer, args) -> str:
    rows = []
    for kappa in _parse_range(args.kappa):
        params = TwoBodyParams(args.m1, args.m2, args.omega, kappa)
        with tracer.span("twobody.interparticle"):
            inter = interparticle_entanglement(params)
        with tracer.span("twobody.internal_external"):
            internal = internal_external_entanglement(params)
        with tracer.span("twobody.ground_state", probe=True):
            ground_state_covariance(params)
        rows.append([kappa, inter, internal])
    header = ["kappa", "interparticle_entropy", "internal_external_entropy"]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_text(header, rows))
    return ""


def _replay_command(tracer: Tracer, argv: list[str]) -> str:
    """Replay one CLI command line; returns the standard output it prints."""
    args = build_parser().parse_args(argv)
    if args.command == "scatter":
        return _scatter(tracer, args)
    if args.command == "tailor":
        return _tailor(tracer, args)
    if args.command == "zanardi":
        return _zanardi(tracer, args)
    if args.command == "twobody":
        return _sweep(tracer, args)
    if args.gaussian_command == "williamson":
        return _williamson(tracer, args)
    return _entangle(tracer, args)


def replay_pass(tracer: Tracer, commands, pass_dir: str) -> dict:
    """Replay every command of one pass into ``pass_dir``.

    Returns the pass's layer figures: the summed seconds of each span
    name, the sizes and counts, and ``layer_sum_s``, the seconds of all
    spans that stand for work the CLI does itself.
    """
    first = len(tracer.spans)
    with tracer.span("replay.pass"):
        for command in commands:
            argv = [a.replace("{pass}", pass_dir) for a in command["argv"]]
            with tracer.span("command", command=command["name"]):
                stdout = _replay_command(tracer, argv)
            with open(os.path.join(pass_dir, command["name"] + ".stdout"), "w", encoding="utf-8") as fh:
                fh.write(stdout)
    return summarize(tracer.spans[first:])


# spans whose summed seconds are reported as "<name>_s"
TIMED = (
    "scattering.build", "scattering.diagonalize", "findim.identity_frame", "findim.entropy",
    "findim.random_unitary", "findim.frame_validate", "tailor.tailor_frame",
    "tailor.subalgebra_generators", "tailor.check_zanardi", "gaussian.williamson",
    "gaussian.entropy_across", "gaussian.covariance_validate", "twobody.ground_state",
    "twobody.interparticle", "twobody.internal_external", "serialization.load",
    "serialization.dump",
)


def summarize(spans: list[dict]) -> dict:
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    attrs: dict[str, int] = {}
    layer_sum = 0.0
    for span in spans:
        name = span["name"]
        if name in ("replay.pass", "command"):
            continue
        duration = span["end"] - span["start"]
        seconds[name] = seconds.get(name, 0.0) + duration
        counts[name] = counts.get(name, 0) + 1
        if not span["attrs"].get("probe"):
            layer_sum += duration
        for key in ("hamiltonian_bytes", "frame_bytes", "product_bytes"):
            attrs[key] = max(attrs.get(key, 0), span["attrs"].get(key, 0))
        attrs["bytes"] = attrs.get("bytes", 0) + span["attrs"].get("bytes", 0)
    metrics = {f"{name}_s": seconds.get(name, 0.0) for name in TIMED}
    metrics.update({
        "scattering.propagate_s": seconds.get("scattering.evolve", 0.0)
        - metrics["scattering.diagonalize_s"],
        "scattering.hamiltonian_mb": attrs.get("hamiltonian_bytes", 0) / MB,
        "findim.frame_mb": attrs.get("frame_bytes", 0) / MB,
        "findim.entropy_calls": counts.get("findim.entropy", 0),
        "tailor.product_matrix_mb": attrs.get("product_bytes", 0) / MB,
        "twobody.kappa_points": counts.get("twobody.interparticle", 0),
        "serialization.bytes_written": attrs.get("bytes", 0),
        "layer_sum_s": layer_sum,
    })
    return metrics
