"""One round of a workload, in a fresh process: set-up, the timed stage, then
the output checks. run.py starts it; it prints one JSON object as the last
line of its standard output.

    python3 stagebench/worker.py --workload W --seed N --inputs DIR [--spans FILE]

With --spans the round is traced and the spans are written to FILE.

setup_s and stage_s are CPU time: the process's, all threads, plus that of
any child process it waited for. The worker runs one thread of Python and
one of BLAS, so on an idle machine this is its wall time. On a shared
virtual machine the wall time also counts the time the host gave to other
guests (steal), which the guest kernel leaves out of a process's CPU time.
The wall times are reported beside them, for the run record.
"""

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import minidapt  # noqa: E402

if not Path(minidapt.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"minidapt imported from {minidapt.__file__}, not from {SRC}")

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def cpu_s():
    """CPU time of this process and its waited-for children, in seconds."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    tracer = tracing.Tracer() if args.spans else None
    if tracer:
        tracer.install()
    t0, c0 = time.perf_counter(), cpu_s()
    state = workload.setup(args.inputs, args.seed)
    t1, c1 = time.perf_counter(), cpu_s()
    # Start the stage from the same collector state on every seed: the
    # stage's graphs are freed only by a full collection, so its peak RSS
    # and time depend on when one falls, and set-up leaves seed-dependent
    # allocation counts behind.
    gc.collect()
    u2 = resource.getrusage(resource.RUSAGE_SELF)
    t2, c2 = time.perf_counter(), cpu_s()
    out = workload.stage(state)
    t3, c3 = time.perf_counter(), cpu_s()
    u3 = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = tracing.maxrss_mb()
    layers = None
    if tracer:
        layers = tracer.metrics()
        tracer.uninstall()
        tracer.write_spans(args.spans)

    heldout_loss = workload.heldout_loss(state, out)
    gc.collect()  # the stage's dead graphs; the checks need not pay for them
    todo = workload.checks(state, out)
    failed = []
    for name, check in todo:
        try:
            check()
        except checks.CheckFailed as e:
            failed.append(f"{name}: {e}")
        except Exception as e:  # a check that cannot run has failed too
            traceback.print_exc()
            failed.append(f"{name}: {type(e).__name__}: {e}")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "setup_s": c1 - c0, "stage_s": c3 - c2,
        "setup_wall_s": t1 - t0, "stage_wall_s": t3 - t2, "peak_rss_mb": peak_rss_mb,
        "heldout_loss": heldout_loss, "checks": len(todo), "failed": failed,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stage_user_s": u3.ru_utime - u2.ru_utime, "stage_sys_s": u3.ru_stime - u2.ru_stime,
        "stage_minor_faults": u3.ru_minflt - u2.ru_minflt, "layers": layers}))


if __name__ == "__main__":
    main()
