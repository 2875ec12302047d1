"""colog benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload soundness-sweep --seed 1 --seconds 30 --trace 0

Set-up (imports, proof parsing and checking, synthesis, loading recorded
runs) is timed from the process's start.  One untimed warm-up round follows.
Then whole rounds of the workload's operations run until ``--seconds`` have
passed and every input set has been played; each operation is timed alone
and its output checked outside the timed part.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is traced
(see spans.py) and the metrics are the per-layer ones.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
_CPU_BEFORE_T0 = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def since_process_start() -> float:
    """Wall seconds since _T0, plus the interpreter's start-up before it,
    taken as the CPU time the process had used by then (start-up does not
    wait on anything, and no wall clock of the process's start is finer
    than a clock tick)."""
    return _CPU_BEFORE_T0 + time.perf_counter() - _T0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(wl, seconds: float, on_op=None, min_rounds=None):
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` (by
    default one per input set) have been played.  Every round runs the same
    operations in the same order.  Returns one list per round of (seconds,
    labmoves) per operation, None where it failed, and the counts attempted
    and failed."""
    rounds = []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while True:
        row = []
        for label, op in wl.ops(r):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as e:  # a crash is a failed operation, not the end of the run
                failed += 1
                wl.fail(f"{label}: {type(e).__name__}: {e}")
                row.append(None)
                continue
            dt = time.perf_counter() - t0
            tops, bots = wl.check(label, out)
            if on_op is not None:
                on_op(tops, bots)
            row.append((dt, tops + bots))
        rounds.append(row)
        r += 1
        if r >= (wl.slots if min_rounds is None else min_rounds) and \
                time.perf_counter() - start >= seconds:
            return rounds, attempted, failed


def end_to_end(setup_s, rounds, slots):
    """Rates of a typical round.  Round r plays input set r % slots, so each
    operation meets each input set once per ``slots`` rounds: its time on a
    set is its fastest repeat there (the shared box runs in slower and
    faster phases of a few seconds, and no repeat runs faster than the
    program can), and its time in a typical round is the median over the
    sets.  Labmoves are fixed per operation and set."""
    best = {}
    for r, row in enumerate(rounds):
        for k, op in enumerate(row):
            key = (k, r % slots)
            if op is not None and (key not in best or op[0] < best[key][0]):
                best[key] = op
    per_op = {}
    for (k, _), op in best.items():
        per_op.setdefault(k, []).append(op)
    busy = sum(statistics.median(dt for dt, _ in ops) for ops in per_op.values())
    moves = sum(statistics.median(m for _, m in ops) for ops in per_op.values())
    return {
        "ops_per_s": (len(per_op) / busy, "1/s"),
        "moves_per_s": (moves / busy, "1/s"),
        "op_p50_ms": (statistics.median(dt for dt, _ in best.values()) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, setup, ops, overhead):
    """Counts and seconds per operation of the measured rounds, and the
    seconds that set-up spent loading proofs."""
    s = tracer.summary()
    zero = {"calls": 0, "total": 0.0, "self": 0.0, "size": 0}

    def row(name):
        return s.get(name, zero)

    def per_op(x):
        return x / ops

    out = {}
    for name in ("calculus.parse_proof", "calculus.check_proof", "strategies.synthesize"):
        out[f"{name}_s"] = (setup.get(name, zero)["total"], "s")
    grants = row("machines.env_on_grant")
    out["machines.env_on_grant_s"] = (per_op(grants["total"]), "s/op")
    out["machines.env_grants"] = (per_op(grants["calls"]), "count/op")
    out["machines.env_moves"] = (per_op(grants["size"]), "count/op")
    le = row("kernel.legal_extension")
    out["kernel.legal_extension_calls"] = (per_op(le["calls"]), "count/op")
    out["kernel.legal_extension_accepted"] = (
        le["size"] / le["calls"] if le["calls"] else 0.0, "ratio")
    out["kernel.legal_extension_s"] = (per_op(le["total"]), "s/op")
    out["kernel.position_free_calls"] = (per_op(row("kernel.position_free")["calls"]), "count/op")
    for name in ("machines.DueMachine.next_moves", "machines.Translator.next_moves",
                 "machines.Router.next_moves", "strategies.ThreadPromotion.next_moves"):
        out[f"{name}_calls"] = (per_op(row(name)["calls"]), "count/op")
        out[f"{name}_self_s"] = (per_op(row(name)["self"]), "s/op")
    out["machines.simulate_self_s"] = (per_op(row("machines.simulate")["self"]), "s/op")
    out["machines.fresh_s"] = (per_op(row("machines.fresh")["total"]), "s/op")
    out["kernel.adjudicate_s"] = (per_op(row("kernel.adjudicate")["total"]), "s/op")
    for name in ("kernel.legal_run", "kernel.thread_projections",
                 "kernel.cells_projections", "kernel.bt_structure"):
        out[f"{name}_calls"] = (per_op(row(name)["calls"]), "count/op")
        out[f"{name}_s"] = (per_op(row(name)["total"]), "s/op")
    out["kernel.first_illegal_s"] = (per_op(row("kernel.first_illegal")["total"]), "s/op")
    out["bits.fusions_calls"] = (per_op(row("bits.fusions")["calls"]), "count/op")
    out["bits.defusion_calls"] = (per_op(row("bits.defusion")["calls"]), "count/op")
    out["bits_s"] = (per_op(row("bits.fusions")["total"] + row("bits.defusion")["total"]), "s/op")
    out["cli.main_s"] = (per_op(row("cli.main")["total"]), "s/op")
    out["cli.main_self_s"] = (per_op(row("cli.main")["self"]), "s/op")
    out["cli.legal_run_calls"] = (
        per_op(tracer.count_children("cli.main", "kernel.legal_run")[0]), "count/op")
    out["trace.overhead_s"] = (overhead[0], "s/op")
    out["trace.overhead_ratio"] = (overhead[1], "ratio")
    return out


def traced(wl, args, tracer):
    """The traced run: per-layer metrics, the tracing overhead, and the two
    cross-checks of the spans against the runs.  Writes the per-span
    summary to perfbench/out/."""
    setup = tracer.summary()
    wl.quiet = tracer.paused
    with tracer.paused():
        wl.warm_up()
        # the overhead: the leading rounds untraced now, traced below
        untraced, _, _ = measure(wl, args.seconds / 4, min_rounds=1)
    tracer.clear()
    counts = {"T": 0, "B": 0}

    def count(tops, bots):
        counts["T"] += tops
        counts["B"] += bots

    rounds, attempted, failed = measure(wl, args.seconds, count)
    tracer.uninstall()
    wl.finish()
    k = min(len(untraced), len(rounds))
    base = sum(op[0] for row in untraced[:k] for op in row if op)
    again = [op[0] for row in rounds[:k] for op in row if op]
    extra = sum(again) - base
    overhead = (extra / max(len(again), 1), extra / base if base else 0.0)
    ops = max(attempted - failed, 1)
    metrics = per_layer(tracer, setup, ops, overhead)

    errors = list(wl.errors)
    summary = tracer.summary()
    if args.workload != "adjudicate-recorded":
        env_moves = summary.get("machines.env_on_grant", {}).get("size", 0)
        if env_moves != counts["B"]:
            errors.append(f"cross-check: {env_moves} environment moves at on_grant, "
                          f"{counts['B']} B labmoves in the runs")
        machine_moves = tracer.outermost_moves()
        if machine_moves != counts["T"]:
            errors.append(f"cross-check: {machine_moves} moves from outermost next_moves, "
                          f"{counts['T']} T labmoves in the runs")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "operations": ops,
         "setup": setup, "spans": summary}, indent=1, sort_keys=True))
    return metrics, attempted, failed, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "colog" / "__init__.py").is_file() or not (HERE.parent / "corpus").is_dir():
        print("error: run from a colog checkout (src/colog and corpus/ not found)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    tracer = None
    if args.trace:
        import colog.cli  # noqa: F401  (every module, so every name gets wrapped)
        import spans
        tracer = spans.Tracer()
        tracer.install()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = since_process_start()

    if tracer is None:
        wl.warm_up()
        rounds, attempted, failed = measure(wl, args.seconds)
        wl.finish()
        metrics = end_to_end(setup_s, rounds, wl.slots)
        errors = wl.errors
    else:
        metrics, attempted, failed, errors = traced(wl, args, tracer)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
