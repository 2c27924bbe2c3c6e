"""HashCore repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload mine-fresh --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 25      # every workload

With ``--workload`` the run measures that one workload in this process
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Without it, each workload runs in its own child process and a table of
their results is printed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mine-fresh", "verify-hot", "chain-sync", "pool-hashcore")
#: Set-ups per run; setup_s reports their median.
SETUP_REPEATS = 3


def _use_checkout_source() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _layer_metrics(workload, tracer, outcome, counters: Counter) -> dict:
    """Roll the spans and counter deltas of a traced run up per layer."""
    ops = outcome.attempted

    def per_op_ms(name: str, keep=lambda span: True) -> float:
        spans = [span for span in tracer.named(name) if keep(span)]
        return 1e3 * sum(tracer.self_time(span) for span in spans) / ops

    runs = tracer.named("machine.run")
    exec_s = sum(tracer.self_time(span) for span in runs)
    retired = sum(span[4] for span in runs)
    restarts = tracer.named("node.restart")
    replayed = sum(span[4] for span in restarts)
    restart_s = sum(tracer.duration(span) for span in restarts)
    widget_lookups = counters["widget_hits"] + counters["widget_misses"]
    metrics = {
        "gate.ms": per_op_ms("gate"),
        "widgetgen.spec_ms": per_op_ms("widgetgen.spec"),
        "widgetgen.codegen_ms": per_op_ms("widgetgen.codegen"),
        "widgetgen.builds_per_op": len(tracer.named("widgetgen.codegen")) / ops,
        "machine.memory_ms": per_op_ms("machine.memory"),
        "machine.translate_ms": per_op_ms("machine.translate"),
        "machine.translations_per_op":
            len(tracer.named("machine.translate")) / ops,
        "machine.exec_ms": 1e3 * exec_s / ops,
        "machine.exec_minstr_s": retired / exec_s / 1e6 if exec_s else 0.0,
        "machine.runs.jit": counters["runs.jit"] / ops,
        "machine.runs.fast": counters["runs.fast"] / ops,
        "machine.runs.timed": counters["runs.timed"] / ops,
        "machine.degradations": counters["degradations"],
        "hashcore.widget_hit_rate":
            counters["widget_hits"] / widget_lookups if widget_lookups else 0.0,
        "jit.template_hit_rate": workload.templates.hit_rate(),
        "miner.attempts_per_block": 0.0,
        # Block validation on the receive path; replay's validations are
        # part of node.restart.
        "chain.validate_ms": per_op_ms(
            "chain.validate",
            lambda span: not tracer.under(span, "node.restart"),
        ),
        "node.receive_ms": per_op_ms("node.receive"),
        "store.append_ms": per_op_ms("store.append"),
        "node.restart_ms": 1e3 * restart_s / len(restarts) if restarts else 0.0,
        "chain.replay_ms_per_block":
            1e3 * restart_s / replayed if replayed else 0.0,
        "pool.mean_batch": 0.0,
        "pool.batch_ms": 0.0,
        "pool.queue_wait_ms": 0.0,
        "pool.lockstep_groups": counters["lockstep_groups"],
        "trace.ops_s": ops / outcome.wall,
    }
    metrics.update(outcome.layers)
    if hasattr(workload, "trace_layers"):
        metrics.update(workload.trace_layers(tracer))
    return metrics


def _metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from reference import CheckFailed, Reference
    from tracing import Tracer
    from workloads import WORKLOADS, TemplateCounter

    from repro.machine.jit import clear_template_cache

    workload = WORKLOADS[name](seed)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            # No set-up reuses an earlier one's templates, and none stacks
            # its memory on an earlier one's uncollected cycles.
            clear_template_cache()
            gc.collect()
            began = perf_counter()
            workload.setup()
            setups.append(perf_counter() - began)
        gc.collect()
        workload.templates = TemplateCounter()
        tracer = Tracer() if trace else None
        before = workload.counters()
        if tracer is None:
            outcome = workload.timed(seconds)
        else:
            with tracer:
                outcome = workload.timed(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is None:
            latencies_ms = [1e3 * s for s in outcome.latencies]
            values = {
                "ops_s": outcome.attempted / outcome.wall,
                "op_ms_p50": statistics.median(latencies_ms),
                "op_ms_p90": statistics.quantiles(latencies_ms, n=10)[8],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
        else:
            counters = workload.counters()
            counters.subtract(before)
            values = _layer_metrics(workload, tracer, outcome, counters)
            tracer.dump(ROOT / ".perfbench_out" / f"spans-{name}-{seed}.jsonl")
        correct = True
        try:
            workload.check(Reference())
        except CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        workload.close()
    units = _metric_units()
    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in values.items()
        },
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process and print a table."""
    rows = []
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exit code {child.returncode}", file=sys.stderr)
            return 1
        rows.append((name, json.loads(lines[-1])))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:28s} {metric['value']:12.4f} {metric['unit']}")
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout_source()
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
