"""Tests of the benchmark's own parts: input generator, answer checker and
self-time computation.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from clannish import filtration, serialize  # noqa: E402


def test_generator_is_deterministic_per_seed():
    first = workloads.build("cli-oracle", 5)
    again = workloads.build("cli-oracle", 5)
    other = workloads.build("cli-oracle", 6)
    assert [r.module for s in first for r in s] == [r.module for s in again for r in s]
    assert workloads.digest(first) == workloads.digest(again)
    assert workloads.digest(first) != workloads.digest(other)
    for requests in first:
        assert [r.presentation for r in requests] == ["E1", "GP2", "A4", "DIEUDONNE"]
        for req in requests:
            assert sum(req.summand_dims) == req.dim
            assert "labels" not in json.loads(req.module)


def _gp2_request_and_report():
    req = workloads.build("cli-decompose", 3)[0][1]
    assert req.presentation == "GP2"
    rep = serialize.representation_from_json(json.loads(req.module))
    return req, filtration.multiplicities(rep).as_dict()


def test_checker_accepts_right_and_rejects_tampered_report():
    req, report = _gp2_request_and_report()
    assert checker.check_report(report, req) == []
    stdout = json.dumps(report)
    assert checker.check_cli("decompose", 0, stdout, req) == []

    tampered = json.loads(stdout)
    tampered["summands"][0]["f_dim"] += 1
    assert checker.check_report(tampered, req)
    assert checker.check_cli("decompose", 1, stdout, req) == ["exit code 1"]
    assert checker.check_cli("decompose", None, stdout, req)
    assert checker.check_cli("decompose", 0, "Traceback ...", req)


def test_checker_oracle_payload():
    req = workloads.build("cli-oracle", 4)[0][0]
    payload = {
        "agree": True,
        "summand_dims": list(req.summand_dims),
        "functor": dict(req.multiplicities),
    }
    assert checker.check_oracle(payload, req) == []
    assert checker.check_oracle(dict(payload, agree=False), req)
    dims = list(req.summand_dims)
    dims[0] += 1
    assert checker.check_oracle(dict(payload, summand_dims=dims), req)


def test_self_time_on_span_tree():
    # root [0, 10] with children [1, 4] and [5, 6]; the first child has a
    # grandchild [2, 3].  Spans: (name, start, end, parent, request, value).
    spans = [
        (0, 0.0, 10.0, -1, 1, None),
        (1, 1.0, 4.0, 0, 1, None),
        (2, 2.0, 3.0, 1, 1, None),
        (1, 5.0, 6.0, 0, 1, None),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_sum_self_time_and_counts():
    names = ["filtration.f_dim", "relations.image", "linalg.Subspace"]
    spans = [
        (0, 0.0, 10.0, -1, 1, 1),
        (1, 1.0, 4.0, 0, 1, None),
        (2, 2.0, 3.0, 1, 1, None),
        (0, 10.0, 12.0, -1, 1, 0),
    ]
    m = tracer.combine([tracer.layer_metrics(names, spans)])
    assert m["filtration.self_s"] == 9.0
    assert m["relations.self_s"] == 2.0
    assert m["linalg.self_s"] == 1.0
    assert m["filtration.f_dim_calls"] == 2
    assert m["filtration.f_dim_nonzero"] == 1
    assert m["filtration.useful_ratio"] == 0.5
    assert m["relations.image_calls"] == 1
    assert m["linalg.subspace_ops"] == 1
