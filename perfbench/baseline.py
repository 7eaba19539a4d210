"""Run the benchmark on several seeds and summarise the spread.

    python3 perfbench/baseline.py --workloads far --seeds 1-5
    python3 perfbench/baseline.py --seeds 1-10 --write

Each run is one ``run.py`` process with ``--seconds`` from BENCHMARK.json,
exactly as the command in BENCHMARK.json.  Every metric of every run is printed
with its unit.  For every end-to-end metric this then prints the median over
the seeds and the quartile spread, (Q3 - Q1) over the median with
``statistics.quantiles(values, n=4)``, next to the bound BENCHMARK.json
gives it.  One traced run per workload follows, on the first seed.  With
``--write`` everything goes to ``perfbench/baseline/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(bench, workload, seed, trace):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {out.returncode}:\n"
                           f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench_out" /
                         f"report-{workload}-s{seed}-t{trace}.json").read_text())
    return result, report


def _show(label, result):
    ratio = result["failed"] / result["attempted"]
    print(f"{label}: correct={result['correct']} fail_ratio={ratio:.4g} "
          f"({result['failed']} of {result['attempted']})")
    for name, m in result["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:40s} {value:>14s} {m['unit']}", flush=True)


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench.baseline")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, report = _run(bench, workload, seed, 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "failures_by_type": report["failures_by_type"],
                         "units": report["units"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()},
                         "slopes": report["slopes"],
                         "checks": report["checks"],
                         "inputs_sha256": report["metadata"]["inputs_sha256"]})
            _show(f"{workload} seed {seed}", result)
        summary = {}
        for name, spec in bounds.items():
            summary[name] = _spread([r["metrics"][name] for r in runs])
            summary[name].update(unit=spec["unit"], better=spec["better"],
                                 bound=spec["bound"])
            s = summary[name]
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {workload:10s} {name:12s} median {s['median']:.5g} "
                  f"{s['unit']}, spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){flag}", flush=True)
        traced, report = _run(bench, workload, args.seeds[0], 1)
        _show(f"{workload} seed {args.seeds[0]} traced", traced)
        if not args.write:
            continue
        out = {"workload": workload, "why": why[workload],
               "roadmap": report["metadata"]["roadmap"],
               "command": bench["command"], "run_seconds": bench["run_seconds"],
               "metadata": {k: v for k, v in report["metadata"].items()
                            if k not in ("inputs", "seed", "trace")},
               "summary": summary, "runs": runs,
               "traced": {"seed": args.seeds[0], "correct": traced["correct"],
                          "attempted": traced["attempted"],
                          "failed": traced["failed"],
                          "checks": report["checks"],
                          "metrics": {k: v["value"] for k, v
                                      in traced["metrics"].items()}}}
        path = HERE / "baseline" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"  wrote {path.relative_to(ROOT)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
