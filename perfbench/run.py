"""protostream benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload sim_decoupled --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The workload's inputs are built from ``--seed``; then,
until ``--seconds`` have passed, each round times one or more set-ups (a
fresh import of the package plus the workload's initialisation) and one
complete job, and checks the job's outputs.

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json.
``setup_s`` is the median set-up and ``job_s`` the median passing job; the
rates are a job's work over ``job_s``.  Set-ups precede every job, so both
medians sample the whole window.  The minima are kept in the record: on a
shared two-core host whose speed drifts by up to 2x over minutes, the
minimum rests on the run's few fastest jobs, and across 25 s windows it
spread wider than the median in three of four probes (see the README).

With ``--trace 1`` untraced and traced jobs alternate; the result holds the
per-layer metrics of the traced jobs and the tracing overhead, and the run
fails if the traced counts differ between traced jobs.  The last line of
standard output is the JSON result; the full record (host, per-job times,
checks) goes to ``perfbench/out/``.

BLAS is pinned to one thread before numpy loads.  On a two-core host,
two-thread runs of ``sim_decoupled`` were seen to swing between 164 and 275
steps/s, against 320 to 338 steps/s with one thread.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_JOBS = 3  # per kind (untraced, traced), so no statistic rests on one job
# Set-ups repeat within a round until they have taken this long: a 0.06 s
# set-up timed once per 3 s job gave too few samples for a steady median.
SETUP_ROUND_S = 0.15
MODULES = ("simulate", "mixture", "datagen", "checkpoint", "collapse", "cli")


def fresh_import() -> SimpleNamespace:
    """Import the package anew (numpy and scipy stay loaded)."""
    for name in [n for n in sys.modules
                 if n == "protostream" or n.startswith("protostream.")]:
        del sys.modules[name]
    pkg = importlib.import_module("protostream")
    if Path(pkg.__file__).resolve().parent != SRC / "protostream":
        raise ImportError(f"protostream imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"protostream.{m}")
                              for m in MODULES})


def host_info() -> dict:
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = get()
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_pinned": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def source_lines() -> int:
    """Net line count of the package source, a non-performance field."""
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "protostream").rglob("*.py")))


def run_job(workload, ps, inputs, out, tracer=None, job_id=0):
    """One timed job plus its checks: (seconds, info, failed checks)."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    gc.collect()  # every job starts from the same heap state
    if tracer is not None:
        tracer.install(job_id)
    started = time.perf_counter()
    info = None
    try:
        info = workload.job(ps, inputs, out)
    except Exception:  # a crashing job is a failed operation, not a crash here
        failed = [traceback.format_exc(limit=3)]
    finally:
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    if info is not None:
        try:
            failed = workload.check(ps, inputs, out, info)
        except Exception:
            failed = [traceback.format_exc(limit=3)]
    shutil.rmtree(out)
    return elapsed, info or {}, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "protostream" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cold = time.perf_counter()
    ps = fresh_import()
    cold_import_s = time.perf_counter() - cold

    workload = WORKLOADS[args.workload]
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    inputs = workload.prepare(ps, args.seed, work)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    setup_times = []
    jobs = []  # (traced, seconds, info, failed)
    deadline = time.perf_counter() + args.seconds
    while True:
        n_plain = sum(1 for j in jobs if not j[0])
        n_traced = len(jobs) - n_plain
        if time.perf_counter() >= deadline and n_plain >= MIN_JOBS and (
                tracer is None or n_traced >= MIN_JOBS):
            break
        traced = tracer is not None and n_traced < n_plain
        spent = 0.0
        while spent < SETUP_ROUND_S:
            gc.collect()
            started = time.perf_counter()
            ps = fresh_import()
            workload.setup(ps, inputs)
            setup_times.append(time.perf_counter() - started)
            spent += setup_times[-1]
        seconds, info, failed = run_job(
            workload, ps, inputs, work / f"job{len(jobs)}",
            tracer if traced else None, len(jobs))
        jobs.append((traced, seconds, info, failed))
    shutil.rmtree(work)

    plain = [j for j in jobs if not j[0]]
    failures = [(i, f) for i, j in enumerate(jobs) for f in j[3]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_info(), "src_lines": source_lines(),
        "properties": workload.properties(), "cold_import_s": cold_import_s,
        "setup_s": setup_times,
        "jobs": [{"traced": t, "seconds": s, "failed": f} for t, s, _, f in jobs],
    }
    if args.trace:
        traced = [i for i, j in enumerate(jobs) if j[0]]
        values, mismatched = layer_metrics([tracer.job_summary(i) for i in traced])
        if mismatched:
            failures.append((None, f"traced {mismatched} differ between traced jobs"))
        values["trace.job_s"] = statistics.median(jobs[i][1] for i in traced)
        values["trace.overhead_s"] = (values["trace.job_s"]
                                      - statistics.median(j[1] for j in plain))
        tracer.dump(out_dir / f"{args.workload}.spans.jsonl")
        names = spec["per_layer"]
    else:
        ok = [j for j in plain if not j[3]] or plain
        job_s = statistics.median(j[1] for j in ok)
        values = {
            "setup_s": statistics.median(setup_times),
            "job_s": job_s,
            "steps_per_s": ok[0][2].get("steps", 0) / job_s,
            "rows_per_s": ok[0][2].get("rows", 0) / job_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = spec["end_to_end"]
        record["job_min_s"] = min(j[1] for j in ok)
        record["setup_min_s"] = min(setup_times)
        logliks = [j[2]["final_avg_loglik"] for j in ok if "final_avg_loglik" in j[2]]
        if logliks:
            record["final_avg_loglik"] = statistics.median(logliks)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    result = {"correct": not failures, "attempted": len(jobs),
              "failed": len({i for i, _ in failures if i is not None}),
              "metrics": metrics}
    record.update(result=result, failures=[f for _, f in failures])

    (out_dir / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    host = record["host"]
    print(f"# {args.workload} seed={args.seed} host: {host['nproc']} cpus, "
          f"{host['blas_vendor']} x{host['blas_threads']} threads, "
          f"python {host['python']}, numpy {host['numpy']}; "
          f"src_lines={record['src_lines']}")
    for _, message in failures:
        print(f"# FAILED: {message.strip()}")
    print(f"# fail_ratio = {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']}/{result['attempted']} jobs)")
    if "final_avg_loglik" in record:
        print(f"# final_avg_loglik = {record['final_avg_loglik']:.10g} nats/row")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
