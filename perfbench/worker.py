"""Workload process: runs a plan's tpslab commands in a closed loop.

Started by ``run.py`` with the BLAS thread count pinned in its
environment.  It imports tpslab once, runs one warm-up pass, then timed
passes until ``--seconds`` have been measured (at least ``MIN_PASSES``).
Each pass calls the CLI entry point in-process for every command of the
plan, one after the other, and writes its outputs to its own directory.

With ``--trace 1`` each timed CLI pass is followed by a traced replay pass
(see ``replay.py``), and the spans are written out when the run ends.

``--probe`` only imports tpslab and reports when it is ready; ``run.py``
uses it to time interpreter start-up plus import.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


def _cli_pass(cli, commands, pass_dir: str) -> dict:
    os.makedirs(pass_dir)
    captured = []
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for command in commands:
        argv = [a.replace("{pass}", pass_dir) for a in command["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        captured.append((command["name"], code, out.getvalue(), err.getvalue()))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    codes = {}
    for name, code, stdout, stderr in captured:
        codes[name] = code
        with open(os.path.join(pass_dir, name + ".stdout"), "w", encoding="utf-8") as fh:
            fh.write(stdout)
        if stderr:
            with open(os.path.join(pass_dir, name + ".stderr"), "w", encoding="utf-8") as fh:
                fh.write(stderr)
    return {"dir": pass_dir, "wall_s": wall, "cpu_s": cpu, "codes": codes}


def _replay_pass(replay, tracer, commands, pass_dir: str) -> dict:
    os.makedirs(pass_dir)
    gc.collect()
    wall0 = time.perf_counter()
    figures = replay.replay_pass(tracer, commands, pass_dir)
    return {"dir": pass_dir, "wall_s": time.perf_counter() - wall0, "layers": figures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--plan")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    from tpslab import cli

    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    run_dir = os.path.dirname(os.path.abspath(args.plan))
    with open(args.plan, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    os.chdir(run_dir)
    result = {"passes": [], "replays": []}
    result["warmup"] = _cli_pass(cli, commands, "warmup")

    tracer = None
    if args.trace:
        import replay

        tracer = replay.Tracer()
    measured = 0.0
    index = 0
    minimum = MIN_TRACED_PAIRS if args.trace else MIN_PASSES
    while index < minimum or measured < args.seconds:
        index += 1
        start = time.perf_counter()
        result["passes"].append(_cli_pass(cli, commands, f"pass{index}"))
        if tracer is not None:
            result["replays"].append(_replay_pass(replay, tracer, commands, f"replay{index}"))
        measured += time.perf_counter() - start

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None:
        with open("spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
