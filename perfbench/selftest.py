"""Self-test of the benchmark.  Run from anywhere:

    python3 perfbench/selftest.py

1. Runs every workload at its tiny size through run.py, untraced and
   traced, and asserts that every metric named in BENCHMARK.json is printed
   with its unit, on the human-readable lines and in the final JSON line,
   and that no operation failed (traced parity included).
2. Flips one byte of a written report or OBJ at several places and asserts
   that the operation is reported as failed.
3. Runs run.py in a directory that holds only BENCHMARK.json and the
   benchmark's files, and asserts that it fails without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT / "src"))

import bench       # noqa: E402
import workloads   # noqa: E402

# (marker, how) pairs: flip the first digit after the marker, or the byte
# right after it.  Each names a place a real corruption would change.
FLIPS = {
    "corpus": [(b'"value":', "digit"), (b'"configuration":"', "byte"),
               (b'"base_vertex":[', "digit"), (b'"sig_out":"', "byte")],
    "grid": [(b'"value":', "digit"), (b'"scale":', "digit")],
    "oracle": [(b'"lambda":', "digit"), (b'"grid_n":', "digit")],
    "mesh": [(b"v ", "digit"), (b"\nf ", "digit"), (b"\ng quad_", "digit"),
             (b"\nl ", "digit")],
}


def flipper(marker, how):
    def corrupt(data):
        i = data.index(marker) + len(marker)
        if how == "digit":
            while not 48 <= data[i] <= 57:
                i += 1
        out = bytearray(data)
        out[i] ^= 0x01
        return bytes(out)
    return corrupt


def check_printed(name, trace, units):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(units), \
        set(result["metrics"]) ^ set(units)
    for metric, unit in units.items():
        got = result["metrics"][metric]
        assert got["unit"] == unit and math.isfinite(got["value"]), metric
        assert any(ln.split()[:1] == [metric] and ln.split()[-1] == unit
                   for ln in lines[:-1]), f"{metric} not printed with {unit}"


def check_flips(name):
    workdir = WORK / f"selftest-{name}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.make_ops(name, workdir, 3, "tiny")
        times, _, errors = bench.measure(ops, workdir, 0.0)
        assert len(times) == 1 and not errors, errors
        for marker, how in FLIPS[name]:
            # fresh ops: a corpus check that has passed once compares later
            # reports of the same net by digest, which would hide the rest
            ops = workloads.make_ops(name, workdir, 3, "tiny")
            times, _, errors = bench.measure(ops, workdir, 0.0,
                                          corrupt=flipper(marker, how))
            assert len(errors) == len(times) == 1, \
                f"{name}: flipped byte after {marker!r} was not detected"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_no_source_tree():
    bare = WORK / f"selftest-bare-{time.time_ns()}"
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             "grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        check_printed(name, 0, e2e)
        check_printed(name, 1, layers)
        check_flips(name)
        print(f"ok {name}: metrics printed with units, parity holds, "
              f"{len(FLIPS[name])} flipped bytes detected", flush=True)
    check_no_source_tree()
    print("ok: without a source tree run.py fails and prints no result")


if __name__ == "__main__":
    main()
