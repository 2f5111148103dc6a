"""Answer checks against the planted summands.

These read only the program's output and the planted answer recorded by the
input generator; they never call the decomposition code they are checking.
Each check returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

import json


def check_report(report, req):
    """A decomposition report (``DecompositionReport.as_dict()`` shape)."""
    problems = []
    if report.get("complete") is not True:
        problems.append("report is not complete")
    if report.get("dim") != req.dim:
        problems.append(f"dim {report.get('dim')} != {req.dim}")
    if report.get("checksum") != req.dim:
        problems.append(f"checksum {report.get('checksum')} != dim {req.dim}")
    got = {}
    for summand in report.get("summands", ()):
        word = summand.get("word")
        got[word] = got.get(word, 0) + summand.get("f_dim", 0)
    if got != req.multiplicities:
        problems.append(f"multiplicities {got} != planted {req.multiplicities}")
    return problems


def check_oracle(payload, req):
    """An ``oracle-check`` payload."""
    problems = []
    if payload.get("agree") is not True:
        problems.append("oracle and report disagree")
    dims = payload.get("summand_dims")
    if dims != list(req.summand_dims):
        problems.append(f"summand_dims {dims} != planted {list(req.summand_dims)}")
    if payload.get("functor") != req.multiplicities:
        problems.append(f"functor {payload.get('functor')} != planted {req.multiplicities}")
    return problems


def check_cli(command, exit_code, stdout, req):
    """One CLI request: exit code 0 and a right answer on stdout."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    if not isinstance(payload, dict):
        return ["stdout is not a JSON object"]
    if command == "oracle-check":
        return check_oracle(payload, req)
    return check_report(payload, req)
