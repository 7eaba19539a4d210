"""stasis benchmark: one workload in this process, timed or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's units run back to back (a closed loop with
one client, ``--jobs 1``) until about ``--seconds`` of program time, and the
end-to-end metrics are printed.  With ``--trace 1`` a fixed sample of units,
plus a few small companion units of the other workloads so that every layer
is measured on every workload, runs three times: untraced, traced and traced
again.  The per-layer metrics of the first traced pass are printed with the
tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full report goes to
``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
WALL_LIMIT_S = 150.0      # stop starting units after this, whatever --seconds says
PREPARED_UNITS = {"sweep": 200, "far": 8, "crosscheck": 1000}

END_TO_END = (("ok_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

def _import_program():
    """Import stasis from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import stasis
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import stasis from {SRC}: {exc}")
    origin = Path(stasis.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: stasis imported from {origin}, not {SRC}")
    return stasis


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "far", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _set_up(workloads, args, workdir):
    """Everything before timing: inputs, then one warm-up operation."""
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    wl.prepare(PREPARED_UNITS[args.workload])
    wl.warm()
    return wl


def _measure_set_up(args, workdir):
    """Median wall time from process start to ready, over fresh processes."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe", str(workdir / f"probe{k}")]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe exited with {rc}")
        times.append(t1 - t0)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _timed(wl, workloads, seconds, workdir, started):
    outdir = workdir / "out"
    units, results = [], []
    program_s = 0.0
    while True:
        spec = wl.unit(len(units))
        res = wl.run(spec, workloads.Clock(), str(outdir))
        units.append(spec)
        results.append(res)
        program_s += res.program_s
        # stop at a unit boundary, within half a unit of the target
        if program_s + 0.5 * res.program_s >= seconds:
            break
        if time.perf_counter() - started > WALL_LIMIT_S:
            break
    checks = wl.finish(units, str(outdir))
    return units, results, checks


def _traced(wl, workloads, tracing, args, workdir):
    """Three passes over the sample and the companions.  Returns the
    (workload, unit) pairs, the passes and the checks."""
    units = [(wl, spec) for spec in wl.sample()]
    for name, cls in workloads.WORKLOADS.items():
        if name != wl.name:
            other = cls(args.seed, str(workdir / "in" / name))
            other.warm()
            units += [(other, spec) for spec in other.companions()]
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    passes = {"untraced": [], "traced": [], "repeat": []}
    for i, (owner, spec) in enumerate(units):
        order = ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")
        for name in order + ("repeat",):
            outdir = str(workdir / name)
            if name == "untraced":
                res = owner.run(spec, workloads.Clock(), outdir)
            else:
                hooks.install()
                try:
                    res = owner.run(spec, workloads.Clock(tracer), outdir)
                finally:
                    hooks.uninstall()
            passes[name].append(res)
    counts_repeat = all(
        [tracing.cost_counts(r) for r in a.records]
        == [tracing.cost_counts(r) for r in b.records]
        for a, b in zip(passes["traced"], passes["repeat"]))
    checks = {"cost_counts_repeat": counts_repeat,
              "missing_hooks": hooks.missing}
    checks["csv_byte_identical"] = all(
        len({json.dumps(owner.outputs(spec, str(workdir / name)), sort_keys=True)
             for name in passes}) == 1
        for owner, spec in units if hasattr(owner, "outputs"))
    return units, passes, checks


def _end_to_end(results, setup_s):
    ops = [o for r in results for o in r.ops]
    ok_ms = [o.latency * 1e3 for o in ops if o.ok]
    if not ok_ms:
        raise SystemExit("perfbench: no operation passed; nothing to measure")
    program_s = sum(r.program_s for r in results)
    return {
        "ok_per_s": len(ok_ms) / program_s,
        "op_p50_ms": statistics.median(ok_ms),
        "op_p90_ms": float(np.percentile(ok_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def _per_layer(passes, tracing, count=None):
    """Per-layer metrics of the first ``count`` units of each pass (all of
    them by default)."""
    traced = passes["traced"][:count]
    records = [rec for r in traced for rec in r.records]
    infos = [r.info for r in traced]
    extras = {
        "bytes_written": sum(i.get("bytes_written", 0) for i in infos),
        "rows": sum(i.get("rows", 0) for i in infos),
        "resid_over_bound_max": max(
            (i.get("resid_over_bound_max", 0.0) for i in infos), default=0.0),
    }
    metrics = tracing.layer_metrics(records, extras)
    untraced = sum(r.program_s for r in passes["untraced"][:count])
    traced_s = 0.5 * sum(r.program_s for r in traced + passes["repeat"][:count])
    metrics["trace.overhead"] = traced_s / untraced - 1.0
    metrics["trace.spans"] = sum(len(rec.spans) for rec in records)
    return metrics, records


# ---------------------------------------------------------------------------
# metadata and output
# ---------------------------------------------------------------------------

def _git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "stasis").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _metadata(args, wl, units):
    """``units`` are (workload, unit) pairs."""
    import scipy
    import stasis
    return {
        "workload": args.workload, "why": wl.why, "roadmap": wl.roadmap,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "stasis": stasis.__version__,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_num_threads": os.environ["OMP_NUM_THREADS"], "jobs": 1,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "platform": platform.platform(),
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
        "inputs": [{"workload": w.name, "unit": s["index"], "sha256": w.digest(s)}
                   for w, s in units],
        "inputs_sha256": hashlib.sha256("".join(
            w.digest(s) for w, s in units).encode()).hexdigest()[:16],
    }


def _failures(ops):
    out = {}
    for o in ops:
        if o.error is not None:
            out[o.error] = out.get(o.error, 0) + 1
    return dict(sorted(out.items()))


def _fmt(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None):
    started = time.perf_counter()
    args = _parse(argv)
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.setup_probe:
        _set_up(workloads, args, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    workdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup = None
        if not args.trace:
            setup = _measure_set_up(args, workdir)
        wl = _set_up(workloads, args, workdir / "in")
        report = {}
        if args.trace:
            units, passes, checks = _traced(wl, workloads, tracing, args, workdir)
            metrics, records = _per_layer(passes, tracing)
            report["sample_only_metrics"] = _per_layer(
                passes, tracing, len(wl.sample()))[0]
            results = [r for p in passes.values() for r in p]
            spans_path = OUT / f"spans-{args.workload}-s{args.seed}.json"
            spans_path.write_text(json.dumps(tracing.spans_json(records)))
            report["spans_file"] = spans_path.name
            named_units = list(tracing.UNITS.items())
            correct = checks["cost_counts_repeat"] and checks["csv_byte_identical"]
        else:
            specs, results, checks = _timed(wl, workloads, args.seconds,
                                            workdir, started)
            units = [(wl, spec) for spec in specs]
            metrics = _end_to_end(results, setup[0])
            report["setup_probes_s"] = setup[1]
            named_units = list(END_TO_END)
            correct = (checks.get("csv_byte_identical", True)
                       and not checks.get("rho_ne_1", {}).get("wrong"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [o for r in results for o in r.ops]
    correct = correct and not any(o.wrong for o in ops)
    attempted, failed = len(ops), sum(not o.ok for o in ops)
    slopes = [s for r in results for s in r.info.get("slopes", ())]
    report.update(
        metadata=_metadata(args, wl, units), correct=correct,
        attempted=attempted, failed=failed,
        fail_ratio=failed / attempted if attempted else None,
        failures_by_type=_failures(ops), checks=checks,
        units=len(units), program_s=sum(r.program_s for r in results),
        slopes=slopes, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=float))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(units)} units, {attempted} operations, "
          f"{report['program_s']:.2f} s in the program")
    for name, unit in named_units:
        print(f"  {name:40s} {_fmt(metrics[name]):>14s} {unit}")
    print(f"  {'fail_ratio':40s} {_fmt(report['fail_ratio']):>14s} ratio "
          f"({failed} of {attempted}) {report['failures_by_type']}")
    n_ok = attempted - failed
    if not args.trace and n_ok < 100:
        print(f"  op_p90_ms rests on {n_ok} operations, fewer than 100")
    for s in slopes:
        label = ", ".join(f"{k}={s[k]}" for k in ("kind", "mu", "eps", "frac") if k in s)
        print(f"  slope {label}: fitted {s['fitted']:.4f}, predicted "
              f"{s['predicted']:.4f}{'' if s['gated'] else ' (not gated)'}")
    for key, value in checks.items():
        if isinstance(value, dict):
            print(f"  {key}: {json.dumps(value)}")
        else:
            print(f"  {key}: {value}")
    print(f"  report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed,
                      "metrics": {n: {"value": metrics[n], "unit": u}
                                  for n, u in named_units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
