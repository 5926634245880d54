"""Self-tests of the benchmark: run with ``python3 -m pytest fanbench/tests -q``."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# quick jobs that between them reach every sizer and both kinds of patch
QUICK = {
    "geometry": {"validate:P4", "validate:poly8", "validate:p3sub3", "validate:cone10",
                 "nonfan:poly8", "nonfan:P3", "validate:ht5.0"},
    "ring": {"pp_basis:cube:k2", "pp_basis:diamond:k3", "gkm_compare:diamond:k2",
             "h3_torsion:diamond", "total_chern:poly24", "mpp_basis:ht5.0:k2"},
}


def quick_jobs(workload, seed, tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    run.import_fanpoly()
    jobs = [job for job in workloads.SETUPS[workload](seed, tmp_path) if job.name in QUICK[workload]]
    assert len(jobs) == len(QUICK[workload])
    return jobs


def traced_round(jobs):
    run.run_round(jobs)  # an untraced round first, as in run.py --trace 1
    tracer = tracing.Tracer()
    with tracer:
        results = run.run_round(jobs, tracer)
    return tracer.stats, results


@pytest.mark.parametrize("workload", sorted(QUICK))
def test_counts_repeat_across_traced_runs(workload, tmp_path):
    first, results = traced_round(quick_jobs(workload, 3, tmp_path / "a"))
    second, _ = traced_round(quick_jobs(workload, 3, tmp_path / "b"))
    assert all(err is None for _, _, err in results)
    assert first.counts() == second.counts()
    assert first.calls["intlinalg.hnf"] > 0 and first.max_entry_bits > 0


def _fanpoly_bindings():
    out = {}
    for module in tracing._fanpoly_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    out[(module.__name__, f"{attr}.{name}")] = member
    return out


def test_no_unwrapped_alias_while_installed_and_originals_restored(tmp_path):
    quick_jobs("geometry", 0, tmp_path)
    before = _fanpoly_bindings()
    originals = {id(tracing.resolve(m, p)[2]) for m, p, _ in tracing.TRACED}
    tracer = tracing.Tracer()
    with tracer:
        during = _fanpoly_bindings()
        stale = [key for key, value in during.items() if id(value) in originals]
        assert stale == []
        wrapped = [key for key, value in during.items() if value is not before[key]]
        # at least one binding per traced function, more where modules alias it
        assert len(wrapped) > len(tracing.TRACED)
    after = _fanpoly_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", sorted(QUICK))
def test_traced_answers_equal_untimed_answers(workload, tmp_path):
    jobs = quick_jobs(workload, 1, tmp_path)
    untimed = run.run_round(jobs)
    tracer = tracing.Tracer()
    with tracer:
        traced = run.run_round(jobs, tracer)
    assert [d for _, d, _ in traced] == [d for _, d, _ in untimed]
    assert all(d is not None for _, d, _ in untimed)
    names = {span[0] for span in tracer.spans}
    assert "intlinalg.hnf" in names


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.SETUPS)


def test_scaled_round_keeps_answers_and_scales_by_the_reference(tmp_path):
    assert hostspeed.scale(2.0, hostspeed.REFERENCE_S, 3 * hostspeed.REFERENCE_S) == 1.0
    jobs = quick_jobs("geometry", 2, tmp_path)
    plain = run.run_round(jobs)
    scaled = run.run_round(jobs, scaled=True)
    assert [d for _, d, _ in scaled] == [d for _, d, _ in plain]
    assert all(e > 0 and err is None for e, _, err in scaled)
