"""Stage benchmark for minidapt.

    python3 stagebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's input files from the seed, then runs whole rounds, each
in a fresh worker process (worker.py): set-up, the timed stage, and the
output checks. Rounds start until the next one would end after S seconds;
the first is a warm-up, and at least three more are measured. The last line
of standard output is one JSON object with the medians over the measured
rounds of every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1) that BENCHMARK.json names.

A traced run alternates untraced and traced rounds, so the tracing overhead
is measured against the untraced stage time of the same run. Inputs, spans
and a record of each run (per-round figures, CPU time, guest steal time,
BLAS threads) go under stagebench/runs/.
"""

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: the box has two cores and the parent waits on one worker
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
LAST_START_S = 120  # no round starts later than this, whatever --seconds says


def _steal_s():
    """Guest steal time of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            try:
                return int(getattr(ctypes.CDLL(lib), fn)())
            except (OSError, AttributeError):
                continue
    return None


def _run_round(args, inputs, run_dir, index, traced):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--inputs", str(inputs)]
    if traced:
        cmd += ["--spans", str(run_dir / f"spans-round{index}.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} exited with code {proc.returncode}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"round {index} printed no result")
    result["traced"] = traced
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "minidapt").is_dir():
        sys.exit(f"no minidapt sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    WORKLOADS[args.workload].generate(str(inputs), args.seed)

    steal0, start = _steal_s(), time.perf_counter()
    # Round 0 is a warm-up: its checks count, its timings are not reported.
    # On a shared virtual machine the first seconds of a run measure slowest.
    rounds = [_run_round(args, inputs, run_dir, 0, traced=False)]
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(_run_round(args, inputs, run_dir, len(rounds), traced))
        elapsed = time.perf_counter() - start
        done = len(rounds) > MIN_ROUNDS + args.trace
        if (done and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds) \
                or elapsed > LAST_START_S:
            break
    steal1 = _steal_s()

    plain = [r for r in rounds[1:] if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.stage_s"] = statistics.median(r["stage_s"] for r in traced)
        values["trace.untraced_stage_s"] = statistics.median(r["stage_s"] for r in plain)
        values["trace.overhead_frac"] = (values["trace.stage_s"]
                                         / values["trace.untraced_stage_s"] - 1.0)
        wanted = spec["per_layer"]
    else:
        values = {name: statistics.median(r[name] for r in plain)
                  for name in ("setup_s", "stage_s", "peak_rss_mb", "heldout_loss")}
        wanted = spec["end_to_end"]
    failures = [f for r in rounds for f in r["failed"]]
    result = {
        "correct": not failures,
        "attempted": sum(r["checks"] for r in rounds),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }

    usage = os.times()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "wall_s": time.perf_counter() - start,
        "workers_cpu_s": usage.children_user + usage.children_system,
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "blas": {"env": BLAS_ENV, "openblas_threads": _blas_threads()},
        "result": result,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds in {record['wall_s']:.1f} s, "
          f"workers' CPU {record['workers_cpu_s']:.1f} s, steal {record['steal_s']} s",
          file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
