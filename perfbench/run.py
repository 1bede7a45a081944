"""Benchmark runner for tpslab.

    python3 perfbench/run.py --workload scatter --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The runner draws the workload's
inputs from ``--seed``, times fresh interpreter starts, starts one
workload process (``worker.py``) with the BLAS thread count pinned,
checks every output against computations made apart from tpslab, and
prints one JSON object as the last line of its standard output: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  It exits non-zero without a result when the
tpslab sources are missing or the workload process fails.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads, here and, through the environment, in every
# process the runner starts; README.md gives the reasons.
BLAS_THREADS = "1"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
TRACES = os.path.join(ROOT, ".perfbench_traces")

# timed fresh starts before the passes and again after them, so that the
# median samples the machine at two moments about half a minute apart
SETUP_STARTS = 4
RUN_LIMIT_S = 170.0
MB = 1e6


class WorkerFailed(RuntimeError):
    """The workload process or a start-up probe did not finish cleanly."""


def worker_env() -> dict:
    """Environment of the workload process: BLAS pinned, tpslab defaults."""
    env = dict(os.environ)
    env.pop("TPSLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SOURCE, env.get("PYTHONPATH")) if p)
    return env


def _worker(args: list[str], env: dict, timeout: float) -> str:
    """Run worker.py to its end and return its standard output.

    On a timeout ``subprocess.run`` kills the process and waits for it.
    """
    command = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{' '.join(args)}: no result within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise WorkerFailed(f"{' '.join(args)} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def setup_seconds(env: dict, untimed: int = 0) -> list[float]:
    """Interpreter start plus ``import tpslab`` in fresh processes.

    The first ``untimed`` starts (filling the bytecode cache) are not timed.
    """
    samples = []
    for i in range(untimed + SETUP_STARTS):
        start = time.monotonic()
        ready = json.loads(_worker(["--probe"], env, timeout=60.0).splitlines()[-1])["ready"]
        if i >= untimed:
            samples.append(ready - start)
    return samples


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _kappas() -> np.ndarray:
    start, stop, step = (float(x) for x in workloads.SWEEP["kappa"].split(":"))
    return start + step * np.arange(int(round((stop - start) / step)) + 1)


def references(workload: str) -> dict:
    """Reference values shared by every pass, computed once per run."""
    if workload == "scatter":
        p = workloads.SCATTER
        return {"scatter": checks.scatter_reference(
            p["sites"], p["hop"], p["g"], p["ka"], p["kb"], p["width"])}
    return {}


def check_command(command: dict, pass_dir: str, data: dict, refs: dict) -> None:
    """Check one command's outputs in ``pass_dir``; raises CheckFailed."""
    name = command["name"]
    printed = checks.read_key_values(_read(os.path.join(pass_dir, name + ".stdout")))
    written = [_read(os.path.join(pass_dir, f)) for f in command["outputs"]]
    if name == "scatter":
        _, rows = checks.read_csv(written[0])
        checks.check_scatter(rows[:, 0], rows[:, 1], refs["scatter"], workloads.SCATTER["sites"])
    elif name.startswith("tailor"):
        spec = data[name]
        checks.check_tailor(
            checks.read_frame(written[0]), float(printed["entropy_nats"]),
            spec["psi"], spec["target"], spec["factors"],
        )
    elif name == "zanardi_frame":
        checks.check_zanardi_reports([json.loads(written[0])], workloads.TAILOR_SMALL["dim"])
    elif name == "zanardi_random":
        payload = json.loads(written[0])
        if payload["frames_checked"] != workloads.RANDOM_FRAMES or payload["failures"] != 0:
            raise checks.CheckFailed(
                f"{payload['frames_checked']} frames checked, {payload['failures']} failures"
            )
        checks.check_zanardi_reports(payload["reports"], workloads.TAILOR_SMALL["dim"])
    elif name == "sweep":
        header, rows = checks.read_csv(written[0])
        s = workloads.SWEEP
        checks.check_sweep(header, rows, _kappas(), s["m1"], s["m2"], s["omega"])
    elif name == "williamson":
        payload = json.loads(written[0])
        checks.check_williamson(payload["nu"], payload["S"], data["mixed"], data["nu"])
    elif name == "entangle":
        checks.check_entangle(float(printed["entropy_nats"]), data["pure"], workloads.PARTITION)
    else:
        raise checks.CheckFailed(f"no check for command {name!r}")


def check_pass(run_dir: str, result: dict, commands, data: dict, refs: dict):
    """Returns (failed, wrong, messages) over the commands of one CLI pass.

    A command fails when it exits non-zero or its output is wrong; wrong
    counts only the outputs of commands that exited 0.
    """
    failed = wrong = 0
    messages = []
    pass_dir = os.path.join(run_dir, result["dir"])
    for command in commands:
        name = command["name"]
        code = result["codes"][name]
        if code != 0:
            failed += 1
            stderr = os.path.join(pass_dir, name + ".stderr")
            detail = _read(stderr).strip() if os.path.exists(stderr) else ""
            messages.append(f"{result['dir']}/{name}: exit {code} {detail}")
            continue
        try:
            check_command(command, pass_dir, data, refs)
        except (checks.CheckFailed, KeyError, ValueError, OSError) as exc:
            failed += 1
            wrong += 1
            messages.append(f"{result['dir']}/{name}: {type(exc).__name__}: {exc}")
    return failed, wrong, messages


def compare_replay(cli_dir: str, replay_dir: str, commands) -> tuple[int, list[str]]:
    """Commands whose replayed outputs differ from the CLI's, byte for byte."""
    bad = 0
    messages = []
    for command in commands:
        differing = []
        for f in [command["name"] + ".stdout", *command["outputs"]]:
            with open(os.path.join(cli_dir, f), "rb") as a, open(os.path.join(replay_dir, f), "rb") as b:
                if a.read() != b.read():
                    differing.append(f)
        if differing:
            bad += 1
            messages.append(f"{replay_dir}: {', '.join(differing)} differ from the CLI output")
    return bad, messages


def end_to_end(result: dict, setup: list[float]) -> dict:
    passes = result["passes"]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / MB,
        "setup_s": statistics.median(setup),
    }


def per_layer(result: dict) -> dict:
    """Medians over the replay passes; the two overheads against the CLI."""
    layers = [r["layers"] for r in result["replays"]]
    metrics = {name: statistics.median(x[name] for x in layers) for name in layers[0]}
    cli_wall = statistics.median(p["wall_s"] for p in result["passes"])
    metrics["cli.overhead_s"] = cli_wall - metrics.pop("layer_sum_s")
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in result["replays"]) - cli_wall
    return metrics


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SOURCE, "tpslab", "cli.py")):
        print(f"tpslab sources not found under {SOURCE}", file=sys.stderr)
        return 2
    started = time.monotonic()
    run_dir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        commands, data = workloads.prepare(args.workload, args.seed, run_dir)
        plan = os.path.join(run_dir, "plan.json")
        with open(plan, "w", encoding="utf-8") as fh:
            json.dump({"commands": commands}, fh)
        env = worker_env()
        setup = [] if args.trace else setup_seconds(env, untimed=1)
        refs = references(args.workload)
        _worker(
            ["--plan", plan, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, timeout=RUN_LIMIT_S - (time.monotonic() - started),
        )
        if not args.trace:
            setup += setup_seconds(env)
        result = json.loads(_read(os.path.join(run_dir, "result.json")))
        attempted = failed = wrong = 0
        messages = []
        for p in [result["warmup"], *result["passes"]]:
            f, w, m = check_pass(run_dir, p, commands, data, refs)
            attempted += len(commands)
            failed, wrong, messages = failed + f, wrong + w, messages + m
        if args.trace:
            cli_dir = os.path.join(run_dir, result["passes"][0]["dir"])
            for r in result["replays"]:
                f, m = compare_replay(cli_dir, os.path.join(run_dir, r["dir"]), commands)
                attempted += len(commands)
                failed, wrong, messages = failed + f, wrong + f, messages + m
            os.makedirs(TRACES, exist_ok=True)
            shutil.copyfile(os.path.join(run_dir, "spans.jsonl"),
                            os.path.join(TRACES, f"{args.workload}-seed{args.seed}.jsonl"))
            values = per_layer(result)
        else:
            values = end_to_end(result, setup)
    except WorkerFailed as exc:
        print(f"workload process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for message in messages:
        print(message, file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics(bool(args.trace))}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
