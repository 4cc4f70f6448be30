"""focklab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: focklab is imported from ``src/``
in-process (pure Python, nothing to build).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` runs whole rounds of the workload until the operations have
been busy for ``--seconds``, timing each operation once, and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed number of rounds of the same
seed twice, untraced and then under the layer tracer, and reports the
per-layer metrics, whose counts repeat exactly for a seed.  Every output is
checked against ``oracles``; see README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
import oracles
from inputs import Op
from tracer import LayerTracer

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
# each run also writes its result (and a traced run its per-function table) here
OUTPUT = Path(__file__).resolve().parent / "out"
# set-up is repeated and its median reported, so that one slow moment of
# the host does not move it
SETUP_REPEATS = 5
# rounds generated during set-up; later rounds are generated between rounds
PREPARED_ROUNDS = 8
# a timed run continues past --seconds until this many operations have run,
# so that at least fifteen lie beyond the 90th percentile (on `decide` this
# means three whole rounds in every run, whatever the host's speed)
MIN_OPERATIONS = 150
# rounds per pass of a traced run: a fixed amount of work, so counts repeat
TRACE_ROUNDS = {"decide": 1, "norms": 4, "witness": 3}
EMPIRICAL_FAMILY = dict(kernel_radius=2.0, kernel_radii=2, kernel_angles=4, monomial_degree=4)
PATH_MATRIX_ORDER = 32


def import_focklab():
    """A fresh import of the package, so that every set-up pays for it."""
    for name in [m for m in sys.modules if m == "focklab" or m.startswith("focklab.")]:
        del sys.modules[name]
    import focklab
    import focklab.report
    return focklab


def execute(fl, op: Op):
    """Run one operation through focklab's public functions; returns its output."""
    a = op.args
    if op.kind in ("classify", "component", "diff", "isolated", "essnorm"):
        return fl.report.run(op.kind, a).to_json()
    if op.kind == "fock_norm":
        nv = fl.fock_norm(fl.parse_symbol(a["symbol"]), a["p"])
        return nv.value, nv.error_estimate
    if op.kind == "plane_norm":
        return fl.gauge_plane_norm(fl.parse_symbol(a["psi"]), fl.parse_affine(a["phi"]),
                                   a["p"], a["q"])
    if op.kind == "path":
        kwargs = {"steps": a["steps"], "p": 2.0, "q": 2.0, "matrix_order": PATH_MATRIX_ORDER}
        if a["kind"] == "dilate":
            kwargs["phi"] = fl.parse_affine(a["phi"])
        else:
            kwargs["b1"], kwargs["b2"] = fl.parse_complex(a["b1"]), fl.parse_complex(a["b2"])
        return fl.path_profile(a["kind"], **kwargs)
    operator = fl.WeightedCompositionOperator(
        fl.parse_symbol(a["psi"]), fl.parse_affine(a["phi"]), 2.0, 2.0)
    if op.kind == "matrix":
        matrix = fl.f2_matrix(operator, a["order"], check_tail=False)
        return matrix.entries, fl.matrix_sigma_max(matrix)
    if op.kind == "berezin":
        return fl.berezin(operator, a["w"])
    if op.kind == "empirical":
        return fl.empirical_norm(operator, fl.FamilySpec(**EMPIRICAL_FAMILY))
    raise ValueError(f"unknown operation kind {op.kind!r}")


class Tally:
    """Attempted and failed operations; an unexpected failure makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def record(self, op: Op, output, error: str | None) -> None:
        self.attempted += 1
        reason = error if error is not None else oracles.check(op.kind, op.expect, output)
        if reason is None:
            return
        self.failed += 1
        if op.fault is None:
            self.unexpected.append(f"{op.kind} {op.args}: {reason}")


def run_ops(fl, ops: list[Op], tally: Tally, latencies: list[float] | None = None) -> float:
    """Time each operation once, then check the outputs; returns the busy time."""
    outputs = []
    busy = 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            output, error = execute(fl, op), None
        except Exception as exc:  # a failed operation is counted, the run goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        busy += elapsed
        if latencies is not None:
            latencies.append(elapsed)
        outputs.append((output, error))
    for op, (output, error) in zip(ops, outputs):
        tally.record(op, output, error)
    return busy


def set_up(workload: str, seed: int, tally: Tally):
    """Import, input generation and one warm-up operation of each kind.

    Warm-ups are checked but kept out of the counts, which hold whole rounds.
    """
    start = time.perf_counter()
    fl = import_focklab()
    rounds = [inputs.round_ops(workload, seed, r) for r in range(PREPARED_ROUNDS)]
    warmups = Tally()
    run_ops(fl, inputs.warmup_ops(workload, seed), warmups)
    tally.unexpected += warmups.unexpected
    return time.perf_counter() - start, fl, rounds


def timed_run(workload: str, seed: int, seconds: float, fl, rounds, tally: Tally) -> dict:
    latencies: list[float] = []
    busy = 0.0
    index = 0
    while busy < seconds or len(latencies) < MIN_OPERATIONS:
        ops = rounds[index] if index < len(rounds) else inputs.round_ops(workload, seed, index)
        busy += run_ops(fl, ops, tally, latencies)
        index += 1
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1000.0 * deciles[8], "ms"),
        "ops_per_s": (len(latencies) / busy, "1/s"),
    }


def traced_run(workload: str, seed: int, fl, rounds, tally: Tally) -> tuple[dict, list]:
    ops = [op for r in range(TRACE_ROUNDS[workload]) for op in rounds[r]]
    wall, cpu = time.perf_counter(), time.process_time()
    run_ops(fl, ops, tally)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    tracer = LayerTracer(Path(fl.__file__).parent)
    traced = time.perf_counter()
    with tracer:
        run_ops(fl, ops, tally)
    traced = time.perf_counter() - traced
    metrics = tracer.metrics()
    metrics.update({
        "process.cpu_s": (cpu, "s"),
        "process.wall_s": (wall, "s"),
        "trace.overhead": (traced / wall, "ratio"),
        "trace.traced_s": (traced, "s"),
        "trace.untraced_s": (wall, "s"),
        "config.pool_threads": (fl.config.max_workers(), "count"),
    })
    return metrics, tracer.functions()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "focklab" / "__init__.py").is_file():
        print(f"focklab sources not found under {SOURCE}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    tally = Tally()
    setups = [set_up(args.workload, args.seed, tally) for _ in range(SETUP_REPEATS)]
    _, fl, rounds = setups[-1]
    setup_s = statistics.median(s for s, _, _ in setups)

    functions = None
    if args.trace:
        metrics, functions = traced_run(args.workload, args.seed, fl, rounds, tally)
    else:
        metrics = timed_run(args.workload, args.seed, args.seconds, fl, rounds, tally)
        metrics["setup_s"] = (setup_s, "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")

    for line in tally.unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    OUTPUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "unexpected_failures": tally.unexpected,
              "result": result, "functions": functions}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUTPUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
