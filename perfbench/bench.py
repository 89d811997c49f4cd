"""One workload process: set up, then measure (untraced) or trace.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace --workdir DIR

Prints one JSON object as its last line.  run.py starts this script once
per set-up sample and once to measure, so every sample pays the import.
The operation loop is closed with one client: the next operation starts
when the previous one and its output check are done.
"""

import time

T_START = time.perf_counter()

import argparse          # noqa: E402
import contextlib        # noqa: E402
import hashlib           # noqa: E402
import io                # noqa: E402
import json              # noqa: E402
import os                # noqa: E402
import platform          # noqa: E402
import resource          # noqa: E402
import statistics        # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402
import traceback         # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np       # noqa: E402

import diams             # noqa: E402
from diams.io_cli import run_cli  # noqa: E402

import workloads         # noqa: E402
from replica import Tracer  # noqa: E402

# Share of an operation's time spent on the reference task after it.
REF_SHARE = 0.1
REF_ARRAY = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)


def environment(seed):
    """What two result files must share to be comparable."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "diams").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "backend": getattr(diams, "ACTIVE_BACKEND", None),
            "git_commit": commit, "src_sha256": src.hexdigest(),
            "corpus_seed": seed}


def run_op(argv, out_path, check, tracer=None):
    """One operation and its output check.  Returns (seconds, error): error
    is None for a correct operation and a message otherwise; a nonzero exit,
    an exception or a failed check each make the operation fail."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = run_cli(argv + [str(out_path)])
        else:
            tracer.run(argv + [str(out_path)])
            code = 0
    except Exception:
        return time.perf_counter() - t0, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, f"exit code {code}"
    try:
        check(out_path.read_bytes())
    except Exception as e:      # malformed output can fail in any way
        return elapsed, f"check: {type(e).__name__}: {e}"
    return elapsed, None


def setup(name, workdir, seed, size):
    """Inputs, curve files and one warm-up operation."""
    ops = workloads.make_ops(name, workdir, seed, size)
    _, err = run_op(ops[0].argv, workdir / "warmup.out", ops[0].check)
    if err:
        raise RuntimeError(f"warm-up operation failed: {err}")
    return ops


def reference_task():
    """A fixed computation that calls nothing of the program, made of the
    kinds of work the operations do: Python objects in dicts and lists,
    JSON encoding, float formatting to text, batched 3x3 determinants and
    whole-array arithmetic."""
    d = {}
    for i in range(600):
        d[(i, i % 7)] = [i, i * 0.5, str(i)]
    text = json.dumps([{"quad": [k[0], k[1]], "value": v[1] * 1.2345e-7}
                       for k, v in d.items()])
    text += "\n".join("v %.17g %.17g %.17g" % (i * 0.1, i * 0.2, i * 0.3)
                      for i in range(300))
    a = np.arange(300.0).reshape(100, 3)
    for j in range(12):
        np.linalg.det(np.stack([a, a[::-1], a * 0.5 + j], axis=-2))
    b = REF_ARRAY
    for _ in range(2):
        b = np.sqrt(b * 1.5 + b ** 2)
    return len(text) + int(np.argmax(np.sort(b, axis=1)[:, -1]))


def reference_time(seconds):
    """Median wall time of one reference task, repeated for `seconds` (at
    least once)."""
    times = []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        reference_task()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= t_end:
            return statistics.median(times)


def measure(ops, workdir, seconds, corrupt=None):
    """Untraced closed loop over ops for `seconds`.  Between operations the
    reference task runs for REF_SHARE of the previous operation's time (at
    least once); each operation's reference time is the mean of the medians
    before and after it, so an operation and its reference see the host at
    the same speed.  `corrupt`, when given, edits each output file before
    its check (selftest.py uses it).  Returns (times, refs, errors)."""
    times, refs, errors = [], [], []
    out = workdir / "op.out"
    checks = [op.check for op in ops]
    if corrupt is not None:
        def wrap(check):
            return lambda data: check(corrupt(data))
        checks = [wrap(c) for c in checks]
    t_end = time.perf_counter() + seconds
    ref_before = reference_time(0.0)
    i = 0
    while True:
        op = ops[i % len(ops)]
        elapsed, err = run_op(op.argv, out, checks[i % len(ops)])
        ref_after = reference_time(REF_SHARE * elapsed)
        times.append(elapsed)
        refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        if err:
            errors.append(f"{op.key}: {err}")
        i += 1
        if time.perf_counter() >= t_end:
            return times, refs, errors


def trace(ops, workdir, seconds):
    """Alternate an untraced and a traced operation on the same input until
    `seconds` have passed and every input was traced once.  The traced
    output must equal the untraced output byte for byte."""
    tracer = Tracer()
    keys, overheads, errors = [], [], []
    plain, traced = workdir / "plain.out", workdir / "traced.out"
    t_end = time.perf_counter() + seconds
    attempted = 0
    i = 0
    while i < len(ops) or time.perf_counter() < t_end:
        op = ops[i % len(ops)]
        t_plain, err_plain = run_op(op.argv, plain, op.check)
        t_traced, err_traced = run_op(op.argv, traced, op.check, tracer)
        attempted += 2
        if not err_traced and plain.read_bytes() != traced.read_bytes():
            err_traced = "traced output differs from the untraced output"
        for err in (err_plain, err_traced):
            if err:
                errors.append(f"{op.key}: {err}")
        keys.append(op.key)
        overheads.append(t_traced - t_plain)
        i += 1
    return tracer, keys, overheads, attempted, errors


def default_eps_exit(ops, workdir):
    """Exit code and message of the grid operation at the default
    --metric-eps (the known absolute-floor defect)."""
    argv = list(ops[0].argv)
    k = argv.index("--metric-eps")
    del argv[k:k + 2]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(argv + [str(workdir / "default_eps.out")])
    return code, err.getvalue().strip()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    workdir = Path(args.workdir)        # run.py removes it afterwards
    workdir.mkdir(parents=True)
    ops = setup(args.workload, workdir, args.seed, args.size)
    result = {"setup_s": time.perf_counter() - T_START}
    if args.mode == "measure":
        times, refs, errors = measure(ops, workdir, args.seconds)
        result.update(times=times, refs=refs, attempted=len(times),
                      errors=errors)
        if args.workload == "grid":
            result["default_metric_eps_exit"] = default_eps_exit(ops, workdir)
    elif args.mode == "trace":
        tracer, keys, overheads, attempted, errors = trace(
            ops, workdir, args.seconds)
        result.update(per_layer=tracer.metrics(keys, overheads),
                      attempted=attempted, errors=errors, spans=tracer.dump())
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(args.seed)
    result["ops"] = len(ops)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
