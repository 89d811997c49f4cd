"""Pipeline benchmark: one workload per call, every metric with its unit.

    python3 perfbench/run.py --workload corpus|grid|mesh|oracle \
        --seed N --seconds S --trace 0|1

Run from any directory; the benchmark uses the source tree next to it
(src/diams) and writes only under .perfbench_work/ beside it, where each
run also leaves result-<workload>-trace<0|1>.json (metrics, environment
record, raw operation times) and, when traced, trace-<workload>.json.

--trace 0 prints the end-to-end metrics: three fresh processes each set up
the workload (import, inputs, curve files, one warm-up operation) and the
median is setup_s; the second one then runs the untraced closed loop for
S seconds.  Operation times are reported as multiples of a fixed reference
task timed next to each operation (bench.reference_task), because the host
this was written on changes speed by up to 1.7x within tens of seconds;
the raw seconds are printed too.  --trace 1 prints the per-layer metrics
of one traced process.  The last line of output is one JSON object; the
lines before it repeat the metrics for people, with the environment record
and any notes.
"""

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spec():
    """Workload names, and metric names with units, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in doc["workloads"]],
            {m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def child(args, mode, index, deadline):
    workdir = WORK / f"{args.workload}-{mode}-{index}-{time.time_ns()}"
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--workdir", str(workdir), "--size", args.size]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process did not finish in time") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def quantile(values, q):
    """Nearest-rank quantile of a sample."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(args, deadline):
    # one set-up sample before the measuring process and one after it, so
    # the three samples span the run rather than one moment of the host
    setups = [child(args, "setup", 0, deadline)["setup_s"]]
    res = child(args, "measure", 1, deadline)
    setups.append(res["setup_s"])
    setups.append(child(args, "setup", 2, deadline)["setup_s"])
    times, refs, errors = res["times"], res["refs"], res["errors"]
    rel = [t / r for t, r in zip(times, refs)]
    correct = len(times) - len(errors)
    metrics = {
        "ops_per_ref": correct / sum(rel),
        "op_p50_ref": statistics.median(rel),
        "success_rate": correct / len(times),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    info = {"op_p50_s": statistics.median(times),
            "op_p90_s": quantile(times, 0.9),
            "ops_per_s": correct / sum(times),
            "ref_p50_s": statistics.median(refs),
            "samples": len(times),
            "error_rate": len(errors) / len(times),
            "setup_samples_s": setups}
    if "default_metric_eps_exit" in res:
        code, message = res["default_metric_eps_exit"]
        info["note"] = (
            "grid runs with --metric-eps 1e-12 because at the default 1e-9 "
            "the absolute metric floor rejects this net (known defect, "
            f"ROADMAP item 4); at the default it exited {code}: {message}")
    return metrics, res, errors, info


def per_layer(args, deadline):
    res = child(args, "trace", 0, deadline)
    spans = WORK / f"trace-{args.workload}.json"
    WORK.mkdir(exist_ok=True)
    spans.write_text(json.dumps(res.pop("spans")))
    return res["per_layer"], res, res["errors"], {"spans_file": str(spans)}


def main(argv=None):
    # on SIGTERM, leave through subprocess.run's cleanup, which kills and
    # waits for the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads, e2e_units, layer_units = spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for selftest.py")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "diams" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'diams'}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            values, res, errors, info = per_layer(args, deadline)
            units = layer_units
        else:
            values, res, errors, info = end_to_end(args, deadline)
            units = e2e_units
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    missing = set(units) - set(values)
    if missing:
        print(f"error: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1
    for err in errors:
        print(f"failed operation: {err}", file=sys.stderr)
    print(f"workload {args.workload} ({res['ops']} inputs), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name in units:
        print(f"  {name:<38} {values[name]:>16.6g} {units[name]}")
    for k, v in info.items():
        print(f"  {k}: {v}")
    result = {"correct": not errors, "attempted": res["attempted"],
              "failed": len(errors),
              "metrics": {n: {"value": values[n], "unit": units[n]}
                          for n in units}}
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "env": res["env"], "info": info,
                    "errors": errors, "times": res.get("times"),
                    "refs": res.get("refs")}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
