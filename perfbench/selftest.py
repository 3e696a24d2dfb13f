"""Smoke self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at its smallest length (``--seconds 1``: one unit,
plus the curves for cli_session) untraced and traced, and asserts that each
run exits 0, reports ``correct``, and emits exactly the metrics that
BENCHMARK.json names, each with its unit.  It then repeats one traced run,
which must reproduce every count of the first (run.py compares them and fails
otherwise), and checks that the benchmark refuses to run where there is no
``src/sparsefit``.  Takes about four minutes on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(os.path.basename(HERE), "run.py")]  # from the root


def run(workload, trace, cwd="."):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest: FAIL {message}")


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run(workload, trace)
            expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n"
                   f"{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {result['attempted']} attempted, "
                   f"{result['failed']} failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{workload} trace={trace}: metrics {sorted(got)}")
            for name, m in result["metrics"].items():
                expect(isinstance(m["value"], (int, float)), f"{workload}: {name} = {m['value']!r}")
                if trace == 0:
                    expect(m["value"] > 0, f"{workload}: {name} = {m['value']!r}")
            print(f"selftest: {workload} trace={trace} ok", flush=True)

    proc = run("sim_linear", 1)
    expect(proc.returncode == 0, f"repeated traced run disagrees:\n{proc.stderr[-2000:]}")
    print("selftest: repeated traced run reproduces every count", flush=True)

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run("sim_linear", 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "ran without a sparsefit source tree")
    print("selftest: refuses to run without src/sparsefit", flush=True)
    print("selftest: all ok")


if __name__ == "__main__":
    main()
