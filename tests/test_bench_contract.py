"""The contract between the package and its benchmark: every per-layer metric
of BENCHMARK.json resolves under bench/tracer.py, and the package keeps what
bench/workloads.py calls.  Deleting a name the benchmark reads fails here,
not only in a traced benchmark run."""

import importlib.util
import json
import time
from pathlib import Path

from sporbits.involutions import FpfInvolution
from sporbits.polynomials import Polynomial, VariableSet, parse_polynomial

ROOT = Path(__file__).resolve().parents[1]
#: per-layer metrics that bench/run.py computes itself, not through the tracer
COMPUTED_BY_RUN = {"error_rate", "trace.overhead_ratio", "permutations.rank_matrix.cache_hit_ratio"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_resolves():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"] if m["name"] not in COMPUTED_BY_RUN]
    assert names
    tracer = _load_tracer().Tracer(time.process_time)
    tracer.install()
    try:
        unresolved = []
        for name in names:
            try:
                tracer.value(name)
            except KeyError:
                unresolved.append(name)
    finally:
        tracer.uninstall()
    assert unresolved == []


def test_workloads_call_permutation():
    assert callable(getattr(FpfInvolution, "permutation", None))


def test_square_is_traced_as_a_product():
    """Squaring runs inside Polynomial.__mul__, so the polynomials.mul span and
    its terms_out counter cover p * p and the squares inside p ** k."""
    assert Polynomial.__rmul__ is Polynomial.__mul__
    p = parse_polynomial(VariableSet.named("x", "y"), "x + 2*y - 1/2")
    tracer = _load_tracer().Tracer(time.process_time)
    tracer.install()
    try:
        square = p * p
        assert tracer.value("polynomials.mul.calls") == 1
        assert tracer.value("polynomials.mul.terms_out") == len(square.terms) == 6
        # p ** 2 is one square of the base
        assert p**2 == square
        assert tracer.value("polynomials.mul.calls") == 2
        assert tracer.value("polynomials.mul.terms_out") == 2 * len(square.terms)
    finally:
        tracer.uninstall()
