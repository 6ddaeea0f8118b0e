"""The benchmark's calls into msflow, on its small warm-up cases.

`perfbench/workloads.py` calls the package's entry points and
`perfbench/tracing.py` wraps its layer functions and methods by name.
Each warm-up case runs here once under a tracer that wraps every layer,
so a renamed traced name or a changed call shape fails in seconds;
`perfbench/test_bench.py` runs the full workloads.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WARMUP))
def test_warmup_case_runs_under_a_full_tracer(name):
    case = workloads.WARMUP[name]
    field = case.field(0)
    tracer = tracing.Tracer(None)
    with tracer.installed():
        output, caught = workloads.run_rep(case, field, tracer)
    spans = tracer.take()

    if isinstance(case, workloads.ImpesCase):
        assert workloads.check_impes(case, output) == []
    else:
        assert workloads.Oracle(case, field).check(output) == []
    assert all(workloads.e2e_samples(case, spans).values())
    metrics = workloads.layer_metrics(spans, caught)
    assert (set(metrics) | {"trace.time_to_solution_s", "trace.overhead"}
            == set(workloads.PER_LAYER))
    assert metrics["sparse_linalg.pcg.iterations"] > 0
    # the exact overlap-0 boxes serve the gmsfem basis builds only
    exact_builds = metrics["mixed_fem.block_solvers.overlap0.calls"]
    if case.space == "rt0":
        assert exact_builds == 0
    else:
        assert exact_builds >= 1
