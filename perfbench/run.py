#!/usr/bin/env python3
"""stresslayout benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload sgd_mid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The seed generates the workload's input files and its fixed
job list (see workloads.py).  Each job is one in-process
``stresslayout.cli.main([...])`` call, started when the previous one has
returned.  The job list is run again and again until ``--seconds`` would
be exceeded (at least once); timings are medians over those passes.

``--trace 0`` reports the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (tracer.py), plus the tracing
overhead.  Every job's outputs are checked (checks.py) and hashed; the
hashes must agree between passes, and with earlier runs of the same code
and seed recorded under perfbench/out/ledger.  The last line of standard
output is the JSON result.
"""

import os

# Pin BLAS threads before numpy is imported anywhere in this process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402  (the script's directory is on sys.path)
from checks import check_job, digest, read_report  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKDIR_NAME = f"work-{os.getpid()}"
SETUP_REPEATS = 5
MIB = 2.0**20


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid result."""


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import stresslayout from this checkout's src/, never from elsewhere."""
    if not (SRC / "stresslayout" / "__init__.py").is_file():
        raise BenchmarkError(f"no stresslayout package under {SRC}")
    sys.path.insert(0, str(SRC))
    import stresslayout
    import stresslayout.bench
    import stresslayout.cli

    if Path(stresslayout.__file__).resolve().parent != SRC / "stresslayout":
        raise BenchmarkError(f"imported stresslayout from {stresslayout.__file__}")
    return stresslayout


def code_hash() -> str:
    """SHA-256 over the program and benchmark sources: the ledger key."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved {name}"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "code_sha256": code_hash(),
    }


def set_up(workload: str, seed: int, workdir: Path):
    """Start-up cost a user pays: a fresh interpreter importing numpy and
    stresslayout, plus writing the workload's inputs.  Repeated; the median
    is reported.  Returns (median seconds, job list)."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, stresslayout"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], check=True, cwd=ROOT)
        jobs = make_inputs(workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return statistics.median(times), jobs


def run_job(cli, argv, tracer, job_id):
    """One cli.main call; returns (exit status, seconds, captured output)."""
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            if tracer is None:
                status = cli.main(list(argv))
            else:
                status = tracer.job(job_id, lambda: cli.main(list(argv)))
    except SystemExit as exc:  # argparse usage errors
        status = exc.code
    except Exception:  # a crash is a failed job; its time stays in the run
        status = "crash"
        captured.write(traceback.format_exc())
    return status, time.perf_counter() - start, captured.getvalue()


def run_pass(program, jobs, tracer):
    """Run the job list once, back to back, then check every output."""
    results = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        results.append(run_job(program.cli, job.argv, tracer, index))
    makespan = time.perf_counter() - start
    records = []
    for job, (status, seconds, log) in zip(jobs, results):
        if status != 0:
            problems, traces = [f"exit status {status}: {log.strip()[-500:]}"], []
        else:
            problems, traces = check_job(job, program.bench)
        records.append({
            "job": job.name,
            "seconds": seconds,
            "problems": problems,
            "sha256": digest(job) if not problems else None,
            "stress_norm": [t.final / pairs(job, t.graph) for t in traces],
        })
    return makespan, records


def pairs(job, graph: str) -> int:
    n = dict(job.vertices)[graph]
    return n * (n - 1) // 2


def tail(times):
    """Highest percentile with at least ten jobs beyond it, never below the
    median.  Returns (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def ledger_check(workload, seed, code, digests, counts) -> list[str]:
    """Compare with earlier runs of the same code and seed; record this one."""
    path = OUT / "ledger" / f"{code[:16]}-{workload}-s{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = json.loads(path.read_text()) if path.is_file() else {}
    problems = []
    if entry.get("digests", digests) != digests:
        problems.append(f"outputs differ from an earlier run of this code and seed ({path.name})")
    if counts is not None and entry.get("counts", counts) != counts:
        problems.append(f"exact counts differ from an earlier run ({path.name})")
    if not problems:
        entry["digests"] = digests
        if counts is not None:
            entry["counts"] = counts
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(entry, indent=1, sort_keys=True))
        tmp.replace(path)
    return problems


def measure(args, program, jobs):
    """Run passes while the next one would end within half a pass of
    --seconds; at least one, and with --trace 1 at least one untraced and
    one traced."""
    passes = []  # (traced, makespan, records, layer metrics or None)
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        pass_start = time.perf_counter()
        try:
            makespan, records = run_pass(program, jobs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        layers = None
        if traced:
            tracer.replay_stress()
            missing = tracing.missing_spans(tracer, args.workload)
            if missing:
                raise BenchmarkError(f"traced run recorded no span for {missing}")
            layers = tracing.layer_metrics(tracer)
        passes.append((traced, makespan, records, layers))
        elapsed = time.perf_counter() - start
        pass_s = time.perf_counter() - pass_start
        both = not args.trace or len(passes) >= 2
        if both and elapsed + pass_s / 2 > args.seconds:
            return passes


def summarize(args, passes, setup_s, env):
    problems = []
    attempted = failed = 0
    digests = {}
    for _, _, records, _ in passes:
        for rec in records:
            attempted += 1
            if rec["problems"]:
                failed += 1
                problems += [f"{rec['job']}: {p}" for p in rec["problems"]]
            elif digests.setdefault(rec["job"], rec["sha256"]) != rec["sha256"]:
                problems.append(f"{rec['job']}: outputs differ between passes of one run")
    traced = [layers for is_traced, _, _, layers in passes if is_traced]
    counts = None
    if traced:
        counts = {name: traced[0][name] for name in tracing.EXACT_COUNTS}
        for layers in traced[1:]:
            if any(layers[name] != counts[name] for name in counts):
                problems.append("exact counts differ between traced passes of one run")
    if not failed:
        problems += ledger_check(args.workload, args.seed, env["code_sha256"], digests, counts)

    untraced_spans = [m for is_traced, m, _, _ in passes if not is_traced]
    job_times = [rec["seconds"] for is_traced, _, records, _ in passes if not is_traced
                 for rec in records]
    first = passes[0][2]
    norms = [v for rec in first for v in rec["stress_norm"]]
    details = {"passes": len(passes), "jobs_timed": len(job_times)}
    if args.trace:
        traced_spans = [m for is_traced, m, _, _ in passes if is_traced]
        metrics = {name: statistics.median(layers[name] for layers in traced)
                   for name in traced[0]}
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_spans) / statistics.median(untraced_spans) - 1.0
        )
        units = metric_units("per_layer")
    else:
        tail_s, percentile = tail(job_times)
        details["job_s_tail"] = {"percentile": percentile, "jobs": len(job_times)}
        metrics = {
            "makespan_s": statistics.median(untraced_spans),
            "job_s_p50": statistics.median(job_times),
            "job_s_tail": tail_s,
            "final_stress_norm": statistics.fmean(norms) if norms else 0.0,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
            "setup_s": setup_s,
            "success_rate": (attempted - failed) / attempted,
        }
        units = metric_units("end_to_end")
    if args.workload == "paper_grid" and not failed:
        details["quality_ledger"] = quality_ledger()
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }, problems, details


def quality_ledger() -> dict:
    """Mean final stress per (graph, algorithm, initializer) cell, from the
    deviation reports of the last pass."""
    cells = {}
    for name in ("bench-report.csv", "hybrid-report.csv"):
        for row in read_report(OUT / WORKDIR_NAME / "outputs" / name):
            key = f"{name.split('-')[0]}:{row['graph']},{row['algorithm']},{row['initializer']}"
            cells[key] = float(row["mean_final_stress"])
    return cells


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / WORKDIR_NAME
    try:
        program = import_program()
        env = environment()
        setup_s, jobs = set_up(args.workload, args.seed, workdir)
        passes = measure(args, program, jobs)
        result, problems, details = summarize(args, passes, setup_s, env)
    except (BenchmarkError, tracing.MissingBinding, ImportError, OSError,
            subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "details": details,
              "problems": problems, "result": result,
              "jobs": [{k: rec[k] for k in ("job", "seconds", "sha256", "stress_norm")}
                       for _, _, records, _ in passes for rec in records]}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1))
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"details: {json.dumps(details, sort_keys=True)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
