"""Closed-loop benchmark of fanpoly, run from the root of a checkout:

    python3 fanbench/run.py --workload geometry --seed 0 --seconds 50 --trace 0

One caller runs the workload's jobs one after another in this process (no
threads, no queue, so no job ever waits); a round runs every job once.
Set-up runs several times and its median is reported.  Whole rounds then
run for about ``--seconds``.  Every job's answer is checked, and
every round's answers must equal the first round's.

``--trace 0`` times every job and reports the end-to-end metrics.  Its
times (jobs, set-up) are wall times scaled to a reference host speed,
measured by a fixed loop run between jobs (see hostspeed.py), because the
shared host's own speed drifts more than any bound could allow.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, plus the trace's own overhead; the
spans of the last traced round go to .fanbench-out/ at the root of the
checkout.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import hostspeed  # noqa: E402  (lives next to this file)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 20
SETUP_MIN_SECONDS = 1.0  # cheap set-ups repeat more, so their median is steady
MIN_SAMPLES = 100  # job_p90_ms needs ten samples beyond it

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

TIMED_LAYERS = (
    "cones.Cone", "cones.Cone.faces", "cones.intersect", "cones.restriction_matrix",
    "fans.Fan", "multifans.multifan_validate", "multifans.mpp_basis",
    "polynomials.degree_matrix", "polynomials.LocalPolynomial.substitute",
    "intlinalg.hnf", "intlinalg.kernel_lattice", "intlinalg.solve_left", "intlinalg.snf",
    "ppring.pp_basis", "ppring.pp_validate", "ppring.pp_pullback", "ppring.pp_is_pullback",
    "gkm.gkm_compare", "mayer_vietoris.h3_torsion", "chern.chern_class",
    "jsonio.read_json_file", "jsonio.fan_from_json", "jsonio.multifan_from_json", "cli.main",
)
COUNTED_LAYERS = (
    "cones.Cone", "cones.Cone.faces", "cones.intersect", "cones.restriction_matrix", "fans.Fan",
    "polynomials.degree_matrix", "polynomials.LocalPolynomial.substitute",
    "intlinalg.hnf", "intlinalg.kernel_lattice", "intlinalg.solve_left", "intlinalg.snf",
)


def per_layer_units():
    units = {f"{name}.calls": "count" for name in COUNTED_LAYERS}
    units.update({f"{name}.self_s": "s" for name in TIMED_LAYERS})
    units["polynomials.degree_matrix.distinct_ratio"] = "ratio"
    units["intlinalg.hnf.max_cells"] = "cells"
    units["intlinalg.max_entry_bits"] = "bits"
    units["other.self_s"] = "s"
    units["trace_overhead_ratio"] = "ratio"
    return units


def import_fanpoly():
    """(Re-)import fanpoly from the checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "fanpoly" or n.startswith("fanpoly.")]:
        del sys.modules[name]
    import fanpoly

    where = Path(fanpoly.__file__).resolve().parent
    if where != SRC / "fanpoly":
        raise ImportError(f"fanpoly was imported from {where}, not from {SRC}")


def set_up(workload, seed, workdir):
    """Import fanpoly and build the jobs, repeatedly; (jobs, set-up times
    scaled to the reference speed)."""
    for _ in range(3):  # warm the reference loop up
        hostspeed.reference_work()
    times = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        before = hostspeed.reference_time()
        t0 = time.perf_counter()
        import_fanpoly()
        jobs = workloads.SETUPS[workload](seed, workdir)
        elapsed = time.perf_counter() - t0
        times.append(hostspeed.scale(elapsed, before, hostspeed.reference_time()))
    return spread_families(jobs), times


def spread_families(jobs):
    """Order a round so that each family's jobs are spaced evenly over it.

    The host's speed drifts over seconds; a family run back to back would
    sample it in a few short stretches per run, spread out it samples the
    whole run.
    """
    count, seen, keys = {}, {}, []
    for job in jobs:
        count[job.family] = count.get(job.family, 0) + 1
    for job in jobs:
        i = seen[job.family] = seen.get(job.family, -1) + 1
        keys.append((i + 0.5) / count[job.family])
    return [job for _, job in sorted(zip(keys, jobs), key=lambda kj: kj[0])]


def keep_going(start, seconds, rounds, jobs_per_round):
    """Whole rounds run for about ``seconds``: another round starts only if
    it would end less than half a round after them.  Unless that takes more
    than twice as long, rounds also run until there are MIN_SAMPLES job
    samples."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds / 2 < seconds or (
        rounds * jobs_per_round < MIN_SAMPLES and elapsed < 2 * seconds
    )


def run_job(job, tracer=None):
    """Time one job, then check its answer with tracing off.

    Returns (seconds, digest of the canonical output or None, error or None).
    """
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        answer = job.run()
        error = None
    except Exception as e:  # a job that raises is counted as failed, not fatal
        error = f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    digest = None
    if error is None:
        try:
            digest = hashlib.sha256(job.check(answer).encode()).hexdigest()
        except Exception as e:  # includes CheckFailed
            error = f"check failed: {type(e).__name__}: {e}"
    return elapsed, digest, error


def run_round(jobs, tracer=None, scaled=False):
    """Run every job once.  With ``scaled``, the reference loop runs before
    the first job and after each one, and each job's time is scaled to the
    reference speed by the two reference times around it."""
    if not scaled:
        return [run_job(job, tracer) for job in jobs]
    results = []
    before = hostspeed.reference_time()
    for job in jobs:
        elapsed, digest, error = run_job(job, tracer)
        after = hostspeed.reference_time()
        results.append((hostspeed.scale(elapsed, before, after), digest, error))
        before = after
    return results


def round_digest(jobs, results):
    """Digest of one round's canonical output, independent of job order."""
    h = hashlib.sha256()
    for name, digest in sorted((job.name, digest or "-") for job, (_, digest, _) in zip(jobs, results)):
        h.update(f"{name}\n{digest}\n".encode())
    return h.hexdigest()


def timed_metrics(jobs, rounds, setup_times, ok_ratio, hot_spots):
    """End-to-end metrics of untraced rounds, after a per-family table."""
    samples = {}
    for results in rounds:
        for job, (elapsed, _, _) in zip(jobs, results):
            samples.setdefault(job.family, []).append(elapsed)
    print(f"{'job family':32} {'n':>5} {'median_ms':>11}")
    for family, values in samples.items():
        mark = "  <- hot spot" if family in hot_spots else ""
        print(f"{family:32} {len(values):5d} {1000 * statistics.median(values):11.3f}{mark}")

    times = [elapsed for results in rounds for elapsed, _, _ in results]
    print(f"{len(rounds)} rounds, {len(times)} job samples"
          + ("" if len(times) >= MIN_SAMPLES else f" (fewer than {MIN_SAMPLES}: p90 is rough)"))
    deciles = statistics.quantiles(times, n=10)
    # throughput of one round at each job's median time, so that one slow
    # round does not decide it
    per_job = [statistics.median(r[i][0] for r in rounds) for i in range(len(jobs))]
    return {
        "jobs_per_s": len(jobs) / sum(per_job),
        "job_p50_ms": 1000 * statistics.median(times),
        "job_p90_ms": 1000 * deciles[8],
        "ok_ratio": ok_ratio,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(jobs, args):
    """Alternate untraced and traced rounds until the time is up.

    Counts come from the first traced round and must repeat exactly in every
    other one; times are medians over the traced rounds.  Returns (rounds
    run, per-layer metrics, error or None).
    """
    tracer = tracing.Tracer()
    plain_s, traced_s, stats, rounds = [], [], [], []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < args.seconds:
        results = run_round(jobs)
        plain_s.append(sum(e for e, _, _ in results))
        rounds.append(results)
        with tracer:
            tracer.new_round()
            results = run_round(jobs, tracer)
        stats.append(tracer.stats)
        traced_s.append(sum(e for e, _, _ in results))
        rounds.append(results)

    first = stats[0]
    error = None
    if any(s.counts() != first.counts() for s in stats[1:]):
        error = "trace counts differ between traced rounds of the same jobs"
    values = {f"{name}.calls": first.calls.get(name, 0) for name in COUNTED_LAYERS}
    for name in TIMED_LAYERS:
        values[f"{name}.self_s"] = statistics.median(s.self_s.get(name, 0.0) for s in stats)
    dm_calls = first.calls.get("polynomials.degree_matrix", 0)
    values["polynomials.degree_matrix.distinct_ratio"] = (
        len(first.degree_matrix_inputs) / dm_calls if dm_calls else 0.0
    )
    values["intlinalg.hnf.max_cells"] = first.hnf_max_cells
    values["intlinalg.max_entry_bits"] = first.max_entry_bits
    values["other.self_s"] = statistics.median(
        total - sum(s.self_s.values()) - s.sizing_s for total, s in zip(traced_s, stats)
    )
    values["trace_overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s) - 1

    print(f"{len(stats)} traced rounds; per round:")
    print(f"{'per-layer metric':48} {'value':>14}")
    for name in per_layer_units():
        print(f"{name:48} {values[name]:14.6g}")
    out = ROOT / ".fanbench-out"
    out.mkdir(exist_ok=True)
    tracer.write_spans(out / f"spans-{args.workload}-seed{args.seed}.json")
    return rounds, values, error


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=".fanbench-", dir=ROOT) as workdir:
        try:
            jobs, setup_times = set_up(args.workload, args.seed, workdir)
        except ImportError as e:
            print(f"error: cannot import fanpoly from {SRC}: {e}", file=sys.stderr)
            return 2
        print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per round, "
              f"set-up {len(setup_times)} times")
        errors = []
        if args.trace:
            rounds, values, error = traced_metrics(jobs, args)
            if error:
                errors.append(error)
        else:
            rounds = []
            start = time.perf_counter()
            while not rounds or keep_going(start, args.seconds, len(rounds), len(jobs)):
                rounds.append(run_round(jobs, scaled=True))

    # every round must reproduce the first one's answers
    reference = [digest for _, digest, _ in rounds[0]]
    got = round_digest(jobs, rounds[0])
    want = workloads.EXPECTED_DIGEST[args.workload]
    print(f"canonical output digest {got}")
    if args.seed == workloads.DEFAULT_SEED and got != want:
        errors.append(f"canonical output digest {got} != expected {want}")
    attempted = failed = 0
    for results in rounds:
        for job, (_, digest, err), ref in zip(jobs, results, reference):
            attempted += 1
            if err or digest != ref:
                failed += 1
                errors.append(f"{job.name}: {err or 'answer differs from the first round'}")
    for err in errors[:20]:
        print(f"FAILED {err}")

    if args.trace:
        units = per_layer_units()
    else:
        units = END_TO_END
        values = timed_metrics(jobs, rounds, setup_times, (attempted - failed) / attempted,
                               workloads.HOT_SPOTS[args.workload])
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
