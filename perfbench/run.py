#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig9-sweep --seed 1 --seconds 15 --trace 0

Workloads: ``fig9-sweep``, ``capability-mix``, ``parallel-sweep`` and
``service-evaluate`` (see ``perfbench/README.md``; ``BENCHMARK.json``
gates the first two, the others run by hand).  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, and the layer spans are written to
``.perfbench/traces/<workload>-seed<N>.jsonl`` for ``repro report``.
The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the checkout cannot run the benchmark at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import harness

#: Set-up is measured this many times per run, in fresh interpreters.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def workload_classes() -> dict:
    from loadgen import ServiceEvaluate
    from workloads import WORKLOADS

    return {**WORKLOADS, ServiceEvaluate.name: ServiceEvaluate}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workload_classes()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test-sized inputs (the benchmark's own tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_context(args, label: str):
    from workloads import Context

    return Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                   scratch=harness.Scratch(label), tiny=args.tiny)


def setup_probe(args) -> int:
    """What a user pays before the first point: import, kernel load,
    input construction and, for the service, server start to /healthz."""
    from repro.noc.backends import native

    native.available()
    ctx = make_context(args, "setup")
    try:
        workload = workload_classes()[args.workload](ctx)
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    finally:
        ctx.scratch.close()
    return 0


def measure_setup(args) -> list[float]:
    """Host seconds of each set-up probe, a fresh interpreter each.

    Raw, not normalized: process start-up and imports are not tracked by
    the calibration loop, and normalizing widened the spread between runs.
    """
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(1 if args.tiny else SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=PROBE_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def kernel_build_s(scratch) -> float:
    """Seconds to compile the C kernel into an empty temp directory."""
    tmp = scratch.fresh("kernel-tmp")
    code = ("import time\nfrom repro.noc.backends import native\n"
            "t = time.perf_counter(); ok = native.available()\n"
            "print(time.perf_counter() - t if ok else 0.0)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                         env=dict(os.environ, TMPDIR=tmp))
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.prepare_environment()
        from repro.noc.backends import native
    except (harness.SetupError, ImportError) as err:
        print(f"perfbench: cannot run here: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    from workloads import END_TO_END, PER_LAYER, Run, finish_common

    native.available()  # compiles the kernel once per checkout, untimed
    setup = measure_setup(args)
    ctx = make_context(args, args.workload)
    run = Run()
    workload = None
    try:
        workload = workload_classes()[args.workload](ctx)
        workload.run(run)
        if args.trace:
            run.layers["engine.kernel_build_s"] = kernel_build_s(ctx.scratch)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        ctx.scratch.close()
    finish_common(run)
    run.e2e["setup_s"] = harness.median(setup)

    from loadgen import OFFERED_RATE

    facts = harness.host_facts(
        OFFERED_RATE if args.workload == "service-evaluate" else None)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    if not facts["native_kernel"]:
        print("WARNING: the C kernel is unavailable; these figures are for the "
              "pure-Python engine and must not be compared with a native run")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    print(ctx.speed.describe())
    for line in run.lines:
        print(line)
    for problem in run.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"failed_frac = {run.failed}/{max(run.attempted, 1)} = "
          f"{run.failed / max(run.attempted, 1):.4g}")

    if args.trace:
        trace = getattr(workload, "trace_obj", None)
        if trace is not None:
            path = harness.WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            trace.save(path)
            selfs = sorted(trace.self_times().items(), key=lambda kv: -kv[1])
            print("self time by layer: " + ", ".join(
                f"{name} {seconds:.3f} s" for name, seconds in selfs))
            print(f"trace: {path} (repro report {path})")
        values, units = run.layers, PER_LAYER
    else:
        values, units = run.e2e, END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = harness.finite(float(values.get(name, 0.0)))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
