#!/usr/bin/env python3
"""gmtkit benchmark: run one seeded workload and report its metrics.

    python3 perfbench/run.py --workload deform_disc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every pass of the workload runs in a fresh
child process (imports, input set-up, then one timed pass of its operations),
so each pass pays the first-call costs a CLI invocation pays.  Passes repeat
while another fits in ``--seconds``, and extra set-up-only children run until
``MIN_SETUPS`` set-ups were timed; timings are reported as medians.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one untraced
and one traced pass and reports the per-layer metrics of ``spantrace``; the
traced pass wraps gmtkit's public functions from outside the library.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record (the
environment, every operation's checks, notes and digests) is written to
``.bench_build/perfbench/BENCH_<workload>_seed<seed>_trace<0|1>.json``, and
a traced run also writes its spans there.

``--record-reference`` runs every variant of every workload once and writes
the sha256 of each artifact to ``perfbench/reference_digests.json``; it is run
on the seed commit, and ``artifacts_changed`` counts operations whose
artifacts differ from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference_digests.json"

VARIANTS = 4  # the seed picks input variant seed % VARIANTS
MIN_SETUPS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s
BLAS_THREADS = "1"

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("solution_energy", "energy"),
    ("image_mass_ratio", "ratio"),
]
# solution_energy and image_mass_ratio are reported as this on a workload
# with no solver problem or no transported set, so every workload prints
# every metric; the record marks them "n/a"
NOT_APPLICABLE = 1.0


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child process: one pass (or one set-up) of a workload


def child_main(args):
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import gmtkit

    source = Path(gmtkit.__file__).resolve().parent
    if source != ROOT / "src" / "gmtkit":
        raise BenchError(f"gmtkit imported from {source}, not from this checkout")
    import workloads

    workdir = Path(args.workdir)
    ops = workloads.build(args.workload, args.variant, workdir)
    record = {"setup_s": time.perf_counter() - t0}
    if args.child == "pass":
        record.update(_timed_pass(workloads, ops, args.trace, args.workload, args.spans))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = {"python": platform.python_version(), "numpy": np.__version__,
                     "blas": _blas_name(np)}
    Path(args.result).write_text(json.dumps(record))
    return 0


def _blas_name(np):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def _timed_pass(workloads, ops, trace, workload, spans_path):
    tracer = None
    if trace:
        import spantrace

        tracer = spantrace.Tracer()
        tracer.install()
    clock = time.perf_counter
    raws, op_walls = [], {}
    start = clock()
    for op in ops:
        t = clock()
        if tracer:
            tracer.op = op.name
        try:
            raws.append((True, op.run()))
        except Exception as exc:  # an operation that raises is counted as failed
            raws.append((False, f"{type(exc).__name__}: {exc}"))
        finally:
            if tracer:
                tracer.op = None
        op_walls[op.name] = clock() - t
    wall = clock() - start
    if tracer:
        tracer.uninstall()
    results = []
    for op, (ran, raw) in zip(ops, raws):
        if not ran:
            verdict = workloads.Verdict([raw], {})
        else:
            try:
                verdict = op.judge(raw)
            except Exception as exc:  # a check that cannot run is a failed check
                verdict = workloads.Verdict([f"check raised {type(exc).__name__}: {exc}"], {})
        results.append({
            "op": op.name,
            "wall_s": op_walls[op.name],
            "failures": verdict.failures,
            "digests": {k: workloads.digest(v) for k, v in sorted(verdict.artifacts.items())},
            "artifact_bytes": sum(len(v) for v in verdict.artifacts.values()),
            "energy": verdict.energy,
            "mass_ratio": verdict.mass_ratio,
            "notes": verdict.notes,
        })
    out = {"wall_s": wall, "ops": results}
    if tracer:
        artifact_bytes = sum(r["artifact_bytes"] for r in results) if workload == "cli_batch" else 0
        out["layers"] = spantrace.layer_metrics(
            tracer.spans, tracer.boundary_bytes,
            op_walls if workload == "cli_batch" else {}, artifact_bytes)
        Path(spans_path).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "extra"], "spans": tracer.spans}))
    return out


# ---------------------------------------------------------------------------
# parent process


def _workload_names():
    spec = ROOT / "BENCHMARK.json"
    return [w["name"] for w in json.loads(spec.read_text())["workloads"]]


def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts the child processes of one run, within the run's time budget."""

    def __init__(self, workload, variant, workdir, deadline):
        self.workload = workload
        self.variant = variant
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def child(self, mode, trace=0, spans=None):
        self.count += 1
        cdir = self.workdir / f"child{self.count}"
        cdir.mkdir(parents=True)
        result = cdir / "result.json"
        cmd = [sys.executable, str(BENCH / "run.py"), "--child", mode,
               "--workload", self.workload, "--variant", str(self.variant),
               "--trace", str(trace), "--workdir", str(cdir), "--result", str(result),
               "--spans", str(spans or cdir / "spans.json")]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        t = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded the run budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} child failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
        record = json.loads(result.read_text())
        record["process_s"] = time.monotonic() - t
        return record


def _changed(ops, reference):
    """Operations whose artifact digests differ from the reference (None: no reference)."""
    if reference is None:
        return None
    return sum(1 for r in ops if r["digests"] != reference.get(r["op"]))


def _reference(workload, variant):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(variant))


def _sum_or_none(values):
    values = [v for v in values if v is not None]
    return float(sum(values)) if values else None


def _mean_or_none(values):
    values = [v for v in values if v is not None]
    return float(statistics.fmean(values)) if values else None


def run_workload(args):
    variant = args.seed % VARIANTS
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    runner = Runner(args.workload, variant, workdir, time.monotonic() + RUN_BUDGET_S)
    spans_path = WORK / f"spans_{args.workload}_seed{args.seed}.json"
    started = time.monotonic()
    try:
        if args.trace:
            passes = [runner.child("pass"), runner.child("pass", trace=1, spans=spans_path)]
        else:
            passes = [runner.child("pass")]
            while time.monotonic() - started + passes[-1]["process_s"] <= args.seconds:
                passes.append(runner.child("pass"))
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(runner.child("setup")["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = _reference(args.workload, variant)
    untraced = [p for p in passes if "layers" not in p]
    ops = [r for p in passes for r in p["ops"]]
    failed = sum(1 for r in ops if r["failures"])
    changed = [_changed(p["ops"], reference) for p in passes]
    energy = [_sum_or_none(r["energy"] for r in p["ops"]) for p in untraced]
    ratio = [_mean_or_none(r["mass_ratio"] for r in p["ops"]) for p in untraced]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "solution_energy": None if None in energy else statistics.median(energy),
        "image_mass_ratio": None if None in ratio else statistics.median(ratio),
        "ops_failed": failed / len(ops),
        "artifacts_changed": None if None in changed else max(changed),
    }
    units = dict(END_TO_END, ops_failed="share", artifacts_changed="count")
    if args.trace:
        traced = passes[1]
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
        import spantrace

        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in spantrace.PER_LAYER}
    else:
        metrics = {name: {"value": NOT_APPLICABLE if values[name] is None else values[name],
                          "unit": unit} for name, unit in END_TO_END}

    env = dict(passes[0]["env"], nproc=os.cpu_count(), blas_threads=int(BLAS_THREADS),
               affinity=len(os.sched_getaffinity(0)), machine=platform.machine())
    record = {
        "workload": args.workload, "seed": args.seed, "variant": variant, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes), "setups": setups, "env": env,
        "end_to_end": {k: {"value": v if v is not None else "n/a", "unit": units[k]}
                       for k, v in values.items()},
        "per_layer": metrics if args.trace else None,
        "pass_records": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }
    out = WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed} (variant {variant})  "
          f"passes {len(passes)}  set-ups {len(setups)}  python {env['python']}  "
          f"numpy {env['numpy']}  nproc {env['nproc']}  blas threads {env['blas_threads']}")
    for name, val in values.items():
        shown = "n/a" if val is None else f"{val:.6g}"
        print(f"  {name:<20} {shown:>14} {units[name]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    for r in ops:
        for f in r["failures"]:
            print(f"  FAILED {r['op']}: {f}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def record_reference(names):
    """Digest every artifact of every variant of the named workloads."""
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in names:
        table[name] = {}
        for variant in range(VARIANTS):
            workdir = WORK / f"reference-{name}-{variant}-pid{os.getpid()}"
            runner = Runner(name, variant, workdir, time.monotonic() + 600.0)
            try:
                record = runner.child("pass")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            failures = [f for r in record["ops"] for f in r["failures"]]
            if failures:
                raise BenchError(f"{name} variant {variant} failed its checks: {failures}")
            table[name][str(variant)] = {r["op"]: r["digests"] for r in record["ops"]}
            print(f"recorded {name} variant {variant} ({record['wall_s']:.2f} s)", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    # internal: the child processes
    parser.add_argument("--child", choices=("pass", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--variant", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    try:
        if not (ROOT / "src" / "gmtkit" / "__init__.py").is_file():
            raise BenchError(f"no gmtkit sources under {ROOT / 'src'}")
        names = _workload_names()
        if args.record_reference:
            return record_reference([args.workload] if args.workload else names)
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        return run_workload(args)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
