"""Output checks for one job; any failure counts the job as failed."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math

from workloads import HYBRID_KS, HYBRID_REPS, PAPER_INITS, PAPER_REPS, SGD_ITERS, Job


def digest(job: Job) -> str:
    """SHA-256 over the bytes of every output file of the job, in order."""
    h = hashlib.sha256()
    for path in job.outputs:
        h.update(path.read_bytes())
    return h.hexdigest()


def check_job(job: Job, bench) -> tuple[list[str], list]:
    """Problems with a finished job's outputs (empty when all checks pass),
    and the job's parsed stress traces.

    ``bench`` is the program's ``stresslayout.bench`` module: its trace
    parser rebuilds every trace, and building a trace enforces that
    majorization never increases stress.
    """
    missing = [str(p) for p in job.outputs if not p.is_file()]
    if missing:
        return [f"missing output {p}" for p in missing], []
    trace_file = job.outputs[1]
    try:
        traces = bench.parse_traces_csv(trace_file)
        if job.kind == "hybrid":
            # The CSV drops the SGD/SMACOF boundary; rebuilding the trace
            # with it raises if the SMACOF phase ever increases.
            for t in traces:
                if t.algorithm == "hybrid":
                    k = int(t.initializer.removeprefix("sgd_"))
                    dataclasses.replace(t, phase_boundary=k)
    except ValueError as exc:
        return [f"{trace_file.name}: {exc}"], []
    problems = []
    expected_runs = {
        "layout": 1,
        "bench": len(job.vertices) * 2 * len(PAPER_INITS) * PAPER_REPS,
        "hybrid": (2 + len(HYBRID_KS)) * HYBRID_REPS,
    }[job.kind]
    if len(traces) != expected_runs:
        problems.append(f"{len(traces)} traces, expected {expected_runs}")
    for t in traces:
        if not all(math.isfinite(v) for v in t.values):
            problems.append(f"{t.run_id}: non-finite stress")
        elif t.final - t.values[0] > _rounding(bench, t.values[0]):
            problems.append(f"{t.run_id}: final stress {t.final!r} above initial {t.values[0]!r}")
        if t.algorithm == "sgd" and len(t.values) != SGD_ITERS + 1:
            problems.append(f"{t.run_id}: {len(t.values)} SGD trace entries")
        if job.kind == "layout" and t.algorithm != job.algorithm:
            problems.append(f"{t.run_id}: algorithm {t.algorithm}, expected {job.algorithm}")
    if job.kind != "layout":
        problems += _check_report(job)
    return problems, traces


def _rounding(bench, value: float) -> float:
    """The increase the program itself treats as rounding, not as a rise
    (StressTrace's monotonicity tolerance).  Exactly realizable inputs
    start near 1e-26, where a sweep can move stress by a few 1e-27."""
    return max(bench.MONOTONE_RTOL * abs(value), bench.MONOTONE_NOISE_FLOOR)


def read_report(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _check_report(job: Job) -> list[str]:
    """The reference cell (smacof x cmds) has deviation exactly 0 per graph."""
    rows = read_report(job.outputs[0])
    problems = []
    for graph, _ in job.vertices:
        ref = [r for r in rows if (r["graph"], r["algorithm"], r["initializer"])
               == (graph, "smacof", "cmds")]
        if len(ref) != 1 or float(ref[0]["deviation"]) != 0.0:
            problems.append(f"{job.outputs[0].name}: no smacof,cmds row with deviation 0 "
                            f"for {graph}")
    for row in rows:
        if not math.isfinite(float(row["mean_final_stress"])):
            problems.append(f"{job.outputs[0].name}: non-finite mean for {row['graph']}")
    return problems
