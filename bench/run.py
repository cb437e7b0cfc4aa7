"""Run one benchmark workload against the rbell sources of this checkout.

    python3 bench/run.py --workload exact-tables --seed 1 --seconds 30 --trace 0

Each operation is a real CLI invocation, ``rbell.cli.main(argv)`` with its
output captured, or a public library call where the CLI has no command.  It
runs in a child forked from this process after rbell is imported and before
anything is computed, so every operation starts with the empty caches of a
fresh rbell process; its peak RSS is the child's own, read with os.wait4.

The run goes through the workload's operation list in whole rounds, in the
same order each time, one operation in flight, until the next round would end
past --seconds (but at least three rounds).  Each operation's time is the
upper quartile of its rounds.  The host runs at its usual speed with spells,
lasting seconds to minutes, at up to 1.6 times that speed; a median over the
rounds flips to the fast speed once a spell covers half of a run, the upper
quartile only once it covers three quarters.  Every output is checked; see
checks.py.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  Per-operation results and,
for traced runs, the spans merged by call path are written under bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
# no run may pass this, whatever --seconds says
MAX_RUN_S = 150
COLD_STARTS_PER_ROUND = 2
OP_TIMEOUT_S = 120
SETUP_ARGV = ("-m", "rbell", "table", "--nmax", "0", "--rmax", "0", "--format", "json")
SETUP_RECORD = '{"op":"table","params":{"nmax":0,"rmax":0},"value":[["1"]]}'

END_TO_END = {"work_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every metric of a traced run, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in tracing.LAYERS}
    units.update({f"verify.{suite}_s": "s" for suite in workloads.SUITES})
    units.update(dict.fromkeys(tracing.GROUPS, "s"))
    units.update(dict.fromkeys(("stirling.calls", "bell.calls", *tracing.CALLS), "count"))
    units.update({"analytic.quad_nodes": "count", "oracle.partitions": "count"})
    units.update({"cli.out_bytes": "bytes", "setup.import_ms": "ms", "traced.work_s": "s"})
    return units


class SetupError(RuntimeError):
    pass


def upper_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def per_operation(samples: list[list[float]], stat=upper_quartile) -> list[float]:
    """One value per operation from samples[round][op]."""
    return [stat(column) for column in zip(*samples)]


def end_to_end(times: list[list[float]], rss: list[list[float]], setup: list[float]) -> dict:
    op_times = per_operation(times)
    return {
        "work_s": sum(op_times),
        "op_p50_ms": statistics.median(op_times) * 1000,
        "peak_rss_mb": max(per_operation(rss, statistics.median)),
        "setup_s": statistics.median(setup),
    }


# ---------------------------------------------------------------------------
# cold starts


def cold_start(importtime: bool) -> float:
    """Seconds from starting a fresh interpreter to the first result of a
    trivial CLI command, or with importtime the milliseconds rbell's import
    took in it."""
    cmd = [sys.executable, *(("-X", "importtime") if importtime else ()), *SETUP_ARGV]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    if proc.returncode != 0 or first.strip() != SETUP_RECORD:
        raise SetupError(f"cold start printed {first.strip()!r}, exit {proc.returncode}")
    if not importtime:
        return elapsed
    for line in err.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "rbell":
            return int(fields[1]) / 1000
    raise SetupError("no import time reported for rbell")


# ---------------------------------------------------------------------------
# one operation in a forked child


def _child(runner, op, tracer) -> dict:
    signal.alarm(OP_TIMEOUT_S)
    out, err = io.StringIO(), io.StringIO()
    value, error = None, None
    if op.argv is not None:
        # Parsing once first touches the memory the CLI needs, so the
        # copy-on-write faults the fork causes (about 10 ms, varying with the
        # host) fall outside the timed call.  A fresh process pays for that
        # memory while importing, which setup_s measures.  Parsing computes
        # nothing, so rbell's caches stay empty.
        runner.warm()
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            value = runner()
    except Exception as exc:  # a crash is this operation's failure, reported below
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    elapsed = time.perf_counter() - start
    if op.argv is not None:
        code, text = value, out.getvalue()
    else:
        code, text = (None, "") if error else (0, op.render(value))
    return {
        "elapsed": elapsed,
        "code": code,
        "stdout": text,
        "stderr": err.getvalue()[-2000:],
        "error": error,
        "trace": tracer.summary() if tracer is not None and error is None else None,
    }


def run_forked(runner, op, tracer) -> tuple[dict, float]:
    """Run one operation in a forked child; returns its report and peak RSS in MB."""
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(read_fd)
            report = _child(runner, op, tracer)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(report, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        raw = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024
    if status != 0 or not raw:
        report = {
            "elapsed": time.perf_counter() - start,
            "code": None,
            "stdout": "",
            "stderr": "",
            "error": f"child ended with wait status {status}",
            "trace": None,
        }
    else:
        report = json.loads(raw)
    return report, rss_mb


# ---------------------------------------------------------------------------
# the run


def import_rbell():
    if not (SRC / "rbell" / "__init__.py").is_file():
        raise SetupError(f"no rbell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rbell.cli

    if not Path(rbell.cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"rbell imported from {rbell.cli.__file__}, not from {SRC}")
    return rbell.cli


class CliRunner:
    """Calls rbell.cli.main(argv); warm() only parses argv."""

    def __init__(self, cli, main, argv) -> None:
        self.cli = cli
        self.main = main
        self.argv = argv

    def warm(self) -> None:
        self.cli.build_parser().parse_args(list(self.argv))

    def __call__(self):
        return self.main(list(self.argv))


def make_runners(ops, cli, tracer):
    main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
    runners = []
    for op in ops:
        if op.argv is not None:
            runners.append(CliRunner(cli, main, op.argv))
        else:
            module, name, args = op.call
            fn = getattr(importlib.import_module(f"rbell.{module}"), name)
            if tracer is not None:
                fn = tracer.wrap(fn, f"{module}.{name}")
            runners.append(lambda fn=fn, args=args: fn(*args))
    return runners


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, list]:
    cli = import_rbell()
    ops = workloads.build(workload, seed)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    runners = make_runners(ops, cli, tracer)
    # Everything the parent keeps is built by now; freezing it keeps the
    # children's collector from walking the parent's objects.
    gc.collect()
    gc.freeze()

    times, rss, traces, setup, durations = [], [], [], [], []
    verdicts: dict[int, tuple] = {}
    failures: list[tuple[int, str]] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setup += [cold_start(trace) for _ in range(COLD_STARTS_PER_ROUND)]
        times.append([])
        rss.append([])
        traces.append([])
        for i, (op, runner) in enumerate(zip(ops, runners)):
            report, rss_mb = run_forked(runner, op, tracer)
            times[-1].append(report["elapsed"])
            rss[-1].append(rss_mb)
            traces[-1].append(report["trace"])
            outcome = (report["code"], report["stdout"], report["error"])
            if i not in verdicts or verdicts[i][0] != outcome:
                problem = report["error"] or op.check(report["code"], report["stdout"])
                verdicts[i] = (outcome, problem)
            if verdicts[i][1] is not None:
                failures.append((i, verdicts[i][1]))
        durations.append(time.perf_counter() - round_start)
        predicted = time.perf_counter() - start + statistics.median(durations)
        if predicted > MAX_RUN_S or (len(times) >= MIN_ROUNDS and predicted > seconds):
            break

    op_times = per_operation(times)
    op_rss = per_operation(rss, statistics.median)
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": len(times),
        "setup_samples": setup,
        "ops": [
            {
                "name": op.name,
                "time_s": op_times[i],
                "samples_s": [t[i] for t in times],
                "peak_rss_mb": op_rss[i],
                "known_fault": op.known_fault,
                "failure": verdicts[i][1],
            }
            for i, op in enumerate(ops)
        ],
    }
    correct = all(ops[i].known_fault is not None for i, _ in failures)
    if trace:
        metrics, units = layer_metrics(ops, times, traces, verdicts, setup), per_layer_units()
    else:
        metrics, units = end_to_end(times, rss, setup), END_TO_END
    result = {
        "correct": correct,
        "attempted": len(times) * len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    spans = [{"op": op.name, "spans": (traces[0][i] or {}).get("tree")} for i, op in enumerate(ops)]
    return result, detail, spans


def layer_metrics(ops, times, traces, verdicts, setup) -> dict:
    """Times are sums over operations of per-operation upper quartiles, like
    work_s; counts come from the first round, since they repeat in every round."""

    def read(summary, kind, name):
        return summary[kind].get(name, 0) if summary else 0

    metrics = {
        "cli.out_bytes": sum(
            len(verdicts[i][0][1].encode()) for i, op in enumerate(ops) if op.argv is not None
        ),
        "setup.import_ms": statistics.median(setup),
        "traced.work_s": sum(per_operation(times)),
    }
    for name, unit in per_layer_units().items():
        if name in metrics:
            continue
        if unit == "s":
            per_round = [[read(s, "times", name) for s in rnd] for rnd in traces]
            metrics[name] = sum(per_operation(per_round))
        else:
            metrics[name] = sum(read(s, "counts", name) for s in traces[0])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail, spans = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    (OUT / f"result-{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=1))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
