"""clannish benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cli-decompose --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``cli-decompose``: one fresh ``python -m clannish.cli decompose`` process per
  module, K-dimension 10 on E1, GP2, A4 and DIEUDONNE;
* ``cli-oracle``: one fresh ``oracle-check`` process per module at prime-field
  dimension 12;
* ``lib-oddchar``: ``filtration.multiplicities`` in process on K-dimension-8
  modules over GF(3) and GF(9), candidate enumeration done during set-up.

A request set is one module per presentation; requests run one at a time
(a closed loop with one client).  With ``--trace 0`` the run measures request
sets for ``--seconds`` seconds (at least MIN_SETS of them) and reports the
end-to-end metrics.  With ``--trace 1`` it runs the first request set
untraced and traced in turn, at least MIN_TRACED times each, and reports the
per-layer metrics.  Every answer is checked against the planted
summands.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller summary, with
input and output sha256 digests, is written under perfbench/_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import checker
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
MIN_SETS = 3
MIN_TRACED = 2
REQUEST_TIMEOUT = 60.0
# No request set starts later than this many seconds after the run began,
# so that a run ends well within three minutes even on a slow host.
START_LIMIT = 110.0

# words.descriptors of one K-dimension-10 request, per presentation.
DESCRIPTORS_AT_DIM_10 = {"E1": 75, "GP2": 321, "A4": 68, "DIEUDONNE": 1249}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PRESENTATIONS = ("E1", "GP2", "A4", "DIEUDONNE")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Run:
    """State of one benchmark run: inputs, request counts, problems found."""

    def __init__(self, args, src):
        import workloads

        self.workloads = workloads
        self.args = args
        self.spec = workloads.WORKLOADS[args.workload]
        self.began = time.perf_counter()
        self.work = os.path.join(
            HERE, "_work", f"{args.workload}-seed{args.seed}-trace{args.trace}"
        )
        os.makedirs(self.work, exist_ok=True)
        for name in os.listdir(self.work):
            os.remove(os.path.join(self.work, name))
        self.env = dict(os.environ, PYTHONPATH=src)
        self.env.pop("CLANNISH_SEED", None)  # the oracle's default search seed
        self.attempted = 0
        self.failures = []  # (request label, problems)
        self.problems = []  # run-level problems: determinism, counts
        self.setup_times = []
        self.request_sets = None
        self.files = None
        self.presentations = None
        self.tracer = None  # in-process tracer of lib-oddchar's traced passes
        self.spans = []  # (request, spans) of those passes

    # -- set-up ---------------------------------------------------------------

    def setup(self, repeats):
        digests = set()
        for _ in range(repeats):
            t0 = time.perf_counter()
            sets = self.workloads.build(self.args.workload, self.args.seed)
            if self.spec.command is None:
                self._warm_library()
            else:
                self._write_modules(sets)
            self.setup_times.append(time.perf_counter() - t0)
            digests.add(self.workloads.digest(sets))
        self.request_sets = sets
        if len(digests) != 1:
            self.problems.append("the same seed gave different inputs")
        self.inputs_sha256 = digests.pop()

    def _write_modules(self, sets):
        self.files = []
        for r, requests in enumerate(sets):
            paths = []
            for i, req in enumerate(requests):
                path = os.path.join(self.work, f"module-r{r}-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(req.module)
                paths.append(path)
            self.files.append(paths)

    def _warm_library(self):
        from clannish import filtration

        self.presentations = {}
        for name, args, kdim in self.spec.presentations:
            pres = self.workloads.presentation(name, args)
            filtration.candidate_descriptors(pres, kdim)
            self.presentations[name] = pres

    # -- requests ---------------------------------------------------------------

    def run_set(self, r, traced=False):
        """Run request set r; returns per-request (presentation, seconds, output),
        wall and CPU seconds, and per-request layer metrics when traced."""
        if self.spec.command is None:
            return self._library_set(r, traced)
        return self._cli_set(r, traced)

    def _cli_set(self, r, traced):
        command = self.spec.command
        requests = self.request_sets[r % len(self.request_sets)]
        paths = self.files[r % len(self.request_sets)]
        out, layers, wall, cpu = [], [], 0.0, 0.0
        for i, (req, path) in enumerate(zip(requests, paths)):
            label = f"set {r} request {i} ({req.presentation})"
            spans_file = os.path.join(self.work, f"spans-{self.attempted}.marshal")
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            if traced:
                argv = [
                    sys.executable, os.path.join(HERE, "traced_cli.py"),
                    spans_file, repr(t0), str(self.attempted), command, path,
                ]
            else:
                argv = [sys.executable, "-m", "clannish.cli", command, path]
            self.attempted += 1
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env
            )
            try:
                stdout, stderr = proc.communicate(timeout=REQUEST_TIMEOUT)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                proc.kill()
                stdout, stderr = proc.communicate()
                code = None
            seconds = time.perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            wall += seconds
            cpu += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            text = stdout.decode("utf-8", "replace")
            problems = checker.check_cli(command, code, text, req)
            if problems:
                tail = stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
                self.failures.append((label, problems + tail))
            out.append((req.presentation, seconds, text.strip()))
            if traced:
                try:
                    with open(spans_file, "rb") as fh:
                        names, spans = marshal.load(fh)
                except (OSError, EOFError, ValueError):
                    self.problems.append(f"{label}: no spans written")
                    names, spans = [], []
                layers.append((req, tracer.layer_metrics(names, spans)))
        return out, wall, cpu, layers

    def _library_set(self, r, traced):
        from clannish import filtration, serialize

        requests = self.request_sets[r % len(self.request_sets)]
        # Fresh module objects each time: a module caches its arrow relations.
        reps = [
            serialize.representation_from_json(
                json.loads(req.module), pres=self.presentations[req.presentation]
            )
            for req in requests
        ]
        out, layers, reports = [], [], []
        if traced:
            self.tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            for req, rep in zip(requests, reps):
                self.attempted += 1
                if traced:
                    self.tracer.request = self.attempted
                start = time.perf_counter()
                try:
                    report = filtration.multiplicities(rep).as_dict()
                except Exception:  # a failed request is counted, the run goes on
                    report = {"error": traceback.format_exc(limit=3)}
                reports.append((req, time.perf_counter() - start, report))
                if traced:
                    self.spans.append((req, self.tracer.take()))
        finally:
            if traced:
                self.tracer.uninstall()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if traced:
            for req, spans in self.spans[-len(requests):]:
                layers.append((req, tracer.layer_metrics(self.tracer.names, spans)))
        for i, (req, seconds, report) in enumerate(reports):
            problems = checker.check_report(report, req)
            if problems:
                self.failures.append((f"set {r} request {i} ({req.presentation})", problems))
            out.append((req.presentation, seconds, json.dumps(report, sort_keys=True)))
        return out, wall, cpu, layers

    # -- measuring ---------------------------------------------------------------

    def may_start(self, done, minimum, deadline):
        now = time.perf_counter()
        if now - self.began > START_LIMIT:
            return False
        return done < minimum or now < deadline

    def end_to_end(self):
        self.setup(SETUP_REPEATS)
        deadline = time.perf_counter() + self.args.seconds
        sets = []
        while self.may_start(len(sets), MIN_SETS, deadline):
            sets.append(self.run_set(len(sets)))
        if self.spec.command is None:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.outputs_sha256 = outputs_digest(sets[0][0])
        self.detail = {
            "set_wall_s": [s[1] for s in sets],
            "set_cpu_s": [s[2] for s in sets],
            "request_s": [[(p, seconds) for p, seconds, _ in s[0]] for s in sets],
            "setup_s": self.setup_times,
        }
        return {
            "wall_s": statistics.median(s[1] for s in sets),
            "cpu_s": statistics.median(s[2] for s in sets),
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": rss_kib * 1024 / 1e6,
        }

    def per_layer(self):
        self.setup(1)
        if self.spec.command is None:
            self.tracer = tracer.Tracer()
        deadline = time.perf_counter() + self.args.seconds
        plain, passes = [], []
        while self.may_start(len(passes), MIN_TRACED, deadline):
            plain.append(self.run_set(0))
            passes.append(self.run_set(0, traced=True))
        if self.spec.command is None:
            with open(os.path.join(self.work, "spans.marshal"), "wb") as fh:
                marshal.dump((self.tracer.names, [spans for _, spans in self.spans]), fh)

        base_text = [text for _, _, text in plain[0][0]]
        if any([text for _, _, text in p[0]] != base_text for p in plain + passes):
            self.problems.append("outputs differ between passes over the same inputs")
        per_pass = [tracer.combine(m for _, m in p[3]) for p in passes]
        self.check_counts(per_pass, passes[0][3])

        metrics = {}
        for name, unit in tracer.LAYER_METRICS:
            values = [m.get(name, 0) for m in per_pass]
            metrics[name] = statistics.median(values) if unit == "s" else values[0]
        for pres in PRESENTATIONS:
            times = [seconds for p in plain for name, seconds, _ in p[0] if name == pres]
            metrics[f"req_s.{pres}"] = statistics.median(times) if times else 0.0
        plain_wall = statistics.median(p[1] for p in plain)
        traced_wall = statistics.median(p[1] for p in passes)
        metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        metrics["failed_frac"] = len(self.failures) / self.attempted
        self.outputs_sha256 = outputs_digest(plain[0][0])
        self.detail = {
            "untraced_wall_s": [p[1] for p in plain],
            "traced_wall_s": [p[1] for p in passes],
            "per_request": [
                {"presentation": req.presentation, "dim": req.dim, **m}
                for req, m in passes[0][3]
            ],
        }
        return metrics

    def check_counts(self, per_pass, first_layers):
        counts = [
            {k: v for k, v in m.items() if not k.endswith("_s")} for m in per_pass
        ]
        if any(c != counts[0] for c in counts[1:]):
            self.problems.append("call counts differ between traced passes")
        for req, m in first_layers:
            want = DESCRIPTORS_AT_DIM_10.get(req.presentation) if req.dim == 10 else None
            if want is not None and m["words.descriptors"] != want:
                self.problems.append(
                    f"{req.presentation}: {m['words.descriptors']} descriptors, expected {want}"
                )


def outputs_digest(out):
    h = hashlib.sha256()
    for _, _, text in out:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "clannish", "cli.py")):
        print("perfbench: src/clannish not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import clannish
    import workloads

    if not os.path.abspath(clannish.__file__).startswith(src + os.sep):
        print(f"perfbench: imported clannish from {clannish.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run = Run(args, src)
    if args.trace:
        values = run.per_layer()
        units = dict(tracer.LAYER_METRICS)
        units.update({f"req_s.{p}": "s" for p in PRESENTATIONS})
        units.update({"trace.overhead_frac": "ratio", "failed_frac": "ratio"})
    else:
        values = run.end_to_end()
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    failed = len(run.failures)
    correct = failed == 0 and not run.problems
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "inputs_sha256": run.inputs_sha256,
        "outputs_sha256": run.outputs_sha256,
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "failures": run.failures,
        "problems": run.problems,
        "metrics": metrics,
        "detail": run.detail,
        "claim": None,
    }
    summary_path = os.path.join(run.work, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
    print(f"inputs sha256  {run.inputs_sha256}")
    print(f"outputs sha256 {run.outputs_sha256}")
    for label, problems in run.failures[:5]:
        print(f"FAILED {label}: {'; '.join(problems)}")
    for problem in run.problems:
        print(f"PROBLEM {problem}")
    print(f"summary        {os.path.relpath(summary_path)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
