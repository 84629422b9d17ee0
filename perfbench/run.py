"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload desk-stream --seed 0 --seconds 12 --trace 0

Run from the root of a checkout.  The run sets up its inputs from the
seed, repeats whole rounds of the workload until they have taken
`--seconds`, checks each round's outputs against the reference evaluator
and the properties the method promises, and prints as its last line
`{"correct", "attempted", "failed", "metrics"}`.  `--trace 0` gives the
end-to-end metrics; `--trace 1` runs each round untraced and then
traced, and gives the per-layer metrics.  See perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk-stream", "scan-9x9", "scan-19x19")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ecopool
    except ImportError as exc:
        print(f"cannot import ecopool from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(ecopool.__file__).resolve().is_relative_to(src):
        print(f"ecopool was imported from {ecopool.__file__}, not {src}", file=sys.stderr)
        return 2
    from layers import LayerProbe
    from spans import Tracer
    from workloads import Checks, make_workload

    import_s = perf_counter() - started

    out = ROOT / ".perfbench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = make_workload(args.workload, ROOT, args.seed, out)

    setups = []
    for _ in range(workload.setups):
        t0 = perf_counter()
        workload.setup()
        setups.append(import_s + perf_counter() - t0)

    # Each round is checked as soon as it is timed and then dropped, so that
    # memory does not grow with the number of rounds.
    checks = Checks()
    plain_s, traced_s = [], []
    facts = {key: 0 for key in ("pool_size", "tests_total", "save_bytes", "outputs_bytes")}
    tracer = Tracer()
    probe = LayerProbe(tracer)
    k = 0
    while k < workload.max_rounds and (k == 0 or sum(plain_s) < args.seconds):
        t0 = perf_counter()
        rnd = workload.round(k, "")
        plain_s.append(perf_counter() - t0)
        workload.check(rnd, checks)
        if args.trace:
            probe.install()
            try:
                t0 = perf_counter()
                rnd = workload.round(k, "-traced")
                traced_s.append(perf_counter() - t0)
            finally:
                tracer.uninstall()
            for key, value in workload.facts(rnd).items():
                facts[key] += value
            workload.check(rnd, checks)
        del rnd
        k += 1
    workload.finish(checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer.write(out / "spans.csv")
        uncovered_s = sum(traced_s) - tracer.root_s
        self_sum = sum(tracer.self_s)
        if uncovered_s < 0 or abs(self_sum - tracer.root_s) > 1e-6 * max(1.0, tracer.root_s):
            checks.problem(
                f"span self times {self_sum} s do not add up to the traced {sum(traced_s)} s "
                f"less {uncovered_s} s outside any span"
            )
        values = probe.metrics(
            len(traced_s),
            facts,
            median(t - p for t, p in zip(traced_s, plain_s)),
            uncovered_s,
            checks,
        )
    else:
        values = {
            "setup_s": median(setups),
            "run_s": median(plain_s),
            "peak_rss_mb": peak_rss_mb,
        }

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if sorted(units) != sorted(values):
        raise RuntimeError(f"BENCHMARK.json declares {sorted(units)}, run gives {sorted(values)}")

    print(
        f"{args.workload} seed {args.seed}: {len(plain_s)} rounds, round times "
        f"{[round(t, 3) for t in plain_s]} s, traced {[round(t, 3) for t in traced_s]} s, "
        f"setups {[round(t, 3) for t in setups]} s, reference ties {checks.ties}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not checks.problems,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
