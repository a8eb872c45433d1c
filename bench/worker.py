"""Benchmark worker: one fresh process per set-up.

    python bench/worker.py WORKLOAD SEED MODE BUDGET INDEX

The worker imports the library, builds its inputs and warms up, then prints
``ready`` so run.py can time the set-up.  It then runs rounds of ops and
prints one JSON line with a record per op.  MODE is ``timed`` (rounds until
BUDGET seconds of op time have passed), ``spans`` (one round with spans
recorded) or ``profile`` (one round under cProfile).  INDEX picks the
worker's share of the inputs: the worker number for ``decompose``, the
round number for ``generators``.  ``cli`` replays its requests in-process
through ``cli.main(argv)``.  Every op is checked after its round, outside
the timed region and with instrumentation off.  Each op record holds the raw
and the host-speed-scaled time (see hostspeed.py), bracketed by samples taken
outside the timed region.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import sys
from pathlib import Path
from time import perf_counter

import metabelian
from metabelian import cli, normal_form, parse_lie_expr

import checks
import hostspeed
import inputs
import spans

OUT_DIR = Path(__file__).resolve().parents[1] / ".bench_out"


class Decompose:
    """reynolds_lie then decompose_invariant, caches warmed in set-up."""

    def __init__(self, seed, index, reference):
        table = reference["decompose"]
        accepted = {cell: sorted(int(k) for k in table[inputs.cell_key(cell)]) for cell in inputs.CELLS}
        self.index = index
        self.inputs = {}
        for cell, ks in inputs.decompose_plan(seed, accepted).items():
            n, d = cell
            key = inputs.cell_key(cell)
            self.inputs[cell] = [
                (key, normal_form(parse_lie_expr(inputs.decompose_element_text(n, d, k), n), n),
                 table[key][str(k)])
                for k in ks
            ]
        for cell in inputs.CELLS:
            self.op(self.inputs[cell][0][1])

    def round(self, r):
        timed = inputs.DECOMPOSE_DRAW - 1
        return [self.inputs[cell][1 + (3 * self.index + r) % timed] for cell in inputs.CELLS]

    @staticmethod
    def op(f):
        averaged = metabelian.reynolds_lie(f)
        return averaged, metabelian.decompose_invariant(averaged)

    @staticmethod
    def check(out, expected):
        averaged, dec = out
        return checks.check_digest(averaged.to_text(), expected) or (
            None if dec.verify(averaged) else "decomposition does not reconstruct its input"
        )


class Generators:
    """generator_h_lie for every pair at n = 5, 6, 7, caches cold."""

    def __init__(self, seed, index, reference):
        self.seed = seed
        self.index = index
        self.table = reference["generators"]

    def round(self, r):
        return [
            (f"n{n}", (n, i, j), self.table[f"{n},{i},{j}"])
            for n, i, j in inputs.generator_order(self.seed, self.index + r)
        ]

    @staticmethod
    def op(args):
        return metabelian.generator_h_lie(*args)

    @staticmethod
    def check(out, expected):
        return checks.check_digest(out.to_text(), expected)


class CliInProcess:
    """One round of CLI requests replayed through cli.main(argv)."""

    def __init__(self, seed, index, reference):
        self.seed = seed
        self.reference = reference

    def round(self, r):
        return [(kind, (kind, k, argv), None) for kind, k, argv in inputs.cli_round(self.seed, r)]

    @staticmethod
    def op(request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(request[2])
        return request, code, out.getvalue(), err.getvalue()

    def check(self, result, _expected):
        (kind, k, argv), code, stdout, stderr = result
        return checks.check_cli(kind, k, argv, code, stdout, stderr, self.reference)


WORKLOADS = {"decompose": Decompose, "generators": Generators, "cli": CliInProcess}


def run(workload, seed, mode, budget, index):
    reference = checks.load_reference()
    work = WORKLOADS[workload](seed, index, reference)
    print("ready", flush=True)

    recorder = profiler = None
    if mode == "spans":
        recorder = spans.SpanRecorder()
        recorder.install()
    elif mode == "profile":
        profiler = cProfile.Profile()

    ops = []
    meter = spans.CacheMeter() if mode == "timed" else None  # first round only
    timed, r = 0.0, 0
    speed = first_speed = hostspeed.sample_ms()  # also closes the set-up interval
    while True:
        outs = []
        for key, arg, expected in work.round(r):
            if meter and r == 0:
                meter.start()
            if recorder:
                recorder.on = True
            if profiler:
                profiler.enable()
            t0 = perf_counter()
            try:
                out, error = work.op(arg), None
            except Exception as exc:  # a failed op is counted, never dropped
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if profiler:
                profiler.disable()
            if recorder:
                recorder.on = False
            if meter and r == 0:
                meter.stop()
            before, speed = speed, hostspeed.sample_ms()
            outs.append((key, dt, hostspeed.scale(dt, before, speed), out, expected, error))
        for key, dt, scaled, out, expected, error in outs:
            ops.append([key, dt, scaled, error or work.check(out, expected)])
        timed += sum(o[1] for o in outs)
        r += 1
        if mode != "timed" or timed >= budget:
            break

    payload = {"ops": ops, "first_speed_ms": first_speed}
    if meter:
        payload["cache"] = meter.metrics()
    if recorder:
        recorder.uninstall()
        recorder.write(OUT_DIR / f"{workload}-s{seed}-spans.tsv")
        payload["layers"] = recorder.metrics()
    if profiler:
        payload["layers"] = spans.profile_metrics(profiler)
    print(json.dumps(payload))


if __name__ == "__main__":
    workload, seed, mode, budget, index = sys.argv[1:6]
    run(workload, int(seed), mode, float(budget), int(index))
