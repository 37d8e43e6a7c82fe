#!/usr/bin/env python3
"""Perf-regression gate over the figures' BENCH-JSON archives.

Every figure binary writes ``BENCH_<name>.json`` — a ``{scenario ->
{metric -> value}}`` map (see bench/figures/fig_util.h). CI archives them
per commit; this script diffs a fresh set against the checked-in
baselines in ``bench/baselines/`` and fails the lane when any figure's
*headline* metric regresses beyond the tolerance.

Headline, not every cell: a figure is gated on one declared metric, and
only metrics that are reproducible deserve a 15% gate. Two kinds
qualify: anything from the simulated figures (fixed seeds, the archives
are byte-identical across runs — EXPERIMENTS.md "run-to-run variation of
the simulated series is zero by construction"), and live *ratio* metrics
whose numerator and denominator share the same process minutes, so host
weather cancels (the tail figure's throughput ratio sits at 1.00 across
runs). Live absolute rates and live max statistics (a smoke run's
p99.99, a microbench's tuples/sec) swing 20-50% on a noisy runner and
would make the lane flap; those stay *advisory* — reported in the diff,
never failing. Their enforcement lives where variance can be handled:
the figure binaries' own full-mode verdict exits (tail_latency_modes
re-runs interleaved rounds before judging its 5x bar;
transport_zero_copy enforces its 5x floor in-process). The HEADLINES
table names the gated metric per figure with its direction; figures
absent from the table get the name-based direction guess over every
metric, advisory only. A metric whose name gives no direction is listed
as *unjudged*: baseline and current side by side, no change, never
failing, and counted in the summary line, so no archived row is
silently dropped.

Usage:
  scripts/bench_compare.py --baseline bench/baselines --current build/bench
  scripts/bench_compare.py --current build/bench --tolerance 0.10 \
      --report /tmp/bench_diff.md
  scripts/bench_compare.py --self-test   # prove the gate can fail

Exit codes: 0 = no gated regression, 1 = regression (or self-test
failure), 2 = usage/IO error.
"""

import argparse
import glob
import json
import os
import sys

# bench name -> (scenario, metric, direction). direction "higher" means a
# drop beyond tolerance regresses; "lower" means a rise does.
HEADLINES = {
    # Live figure: the only run-stable ratio is equal-throughput (coop /
    # thread, both clocked against the same offered load). The tail win
    # itself is a max statistic of one short round in smoke mode (it
    # swings 4x-17x run to run) — the full-mode binary enforces the >=5x
    # bar itself over interleaved rounds, so here it stays advisory.
    "tail_latency_modes": ("verdict", "throughput_ratio", "higher"),
    # Live figure: dark/lit throughput ratio for the always-on flight
    # recorder + profiler layer. The full-mode binary enforces the 1.05x
    # ceiling itself over interleaved best-of-N rounds.
    "observability_overhead": ("verdict", "overhead_ratio", "lower"),
    # Everything below is simulated (fixed seeds, deterministic archive):
    # the paper-verdict ratio of each figure.
    "fig02_03_throughput_latency_acks": ("parallelism_50", "tput_ratio",
                                         "higher"),
    "fig04_throughput_noacks": ("parallelism_50", "tput_ratio", "higher"),
    "fig05_06_smgr_opts_noacks": ("parallelism_100", "tput_ratio",
                                  "higher"),
    "fig07_08_smgr_opts_acks": ("parallelism_100", "tput_ratio", "higher"),
    "fig09_latency_opts": ("parallelism_100", "latency_ratio", "higher"),
    # Knee of the pending sweep: the figure's story is that throughput
    # saturates here while latency keeps rising.
    "fig10_11_max_spout_pending": ("p100_pending_10000",
                                   "tput_mtuples_min", "higher"),
    # Paper-default drain point of the cache sweep.
    "fig12_13_cache_drain": ("p100_drain_10", "tput_mtuples_min",
                             "higher"),
    # Cluster-wide backpressure must keep delivering under a 4x-slowed
    # container (the paper's central robustness claim).
    "backpressure_slow_container": ("slowdown_4_cluster",
                                    "tput_mtuples_min", "higher"),
    # Snapshot recovery work must stay bounded by rate x interval.
    "recovery_checkpoint_interval": ("interval_400", "snapshot_work",
                                     "lower"),
    # The auto-tuner must hold its SLO's throughput.
    "autotune_v_b": ("slo_60ms", "tput_mtuples_min", "higher"),
}

FALLBACK_LOWER_HINTS = ("latency", "_ms", "_ns", "_us", "overhead", "stall")
FALLBACK_HIGHER_HINTS = ("throughput", "per_sec", "per_s", "speedup",
                         "ratio", "win", "mhops", "acks")


def load_bench(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("bench"), doc.get("results", {})


def collect(directory):
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            name, results = load_bench(path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: unreadable bench json {path}: {err}",
                  file=sys.stderr)
            sys.exit(2)
        if name:
            out[name] = results
    return out


def guess_direction(metric):
    m = metric.lower()
    if any(h in m for h in FALLBACK_LOWER_HINTS):
        return "lower"
    if any(h in m for h in FALLBACK_HIGHER_HINTS):
        return "higher"
    return None


def relative_change(baseline, current, direction):
    """Signed regression fraction: positive = worse by that fraction."""
    if baseline == 0:
        return 0.0
    if direction == "higher":
        return (baseline - current) / abs(baseline)
    return (current - baseline) / abs(baseline)


def compare(baselines, currents, tolerance):
    """Returns (rows, failures). Row: (bench, scenario, metric, base,
    cur, regression_fraction, gated, status), status one of "FAIL", "ok"
    (gated, within tolerance), "info" (advisory) or "unjudged" (no known
    direction; regression_fraction is None)."""
    rows = []
    failures = []
    for bench, base_results in sorted(baselines.items()):
        cur_results = currents.get(bench)
        if cur_results is None:
            # A figure that stopped producing its archive is itself a
            # regression of the CI contract.
            failures.append((bench, "<missing>", "<missing>"))
            rows.append((bench, "<missing BENCH json>", "", None, None,
                         None, True, "FAIL"))
            continue
        headline = HEADLINES.get(bench)
        for scenario, metrics in sorted(base_results.items()):
            for metric, base_value in sorted(metrics.items()):
                cur_value = cur_results.get(scenario, {}).get(metric)
                gated = headline is not None and (scenario,
                                                  metric) == headline[:2]
                if cur_value is None:
                    if gated:
                        failures.append((bench, scenario, metric))
                    rows.append((bench, scenario, metric, base_value, None,
                                 None, gated, "FAIL" if gated else "info"))
                    continue
                direction = (headline[2] if gated
                             else guess_direction(metric))
                if direction is None:
                    rows.append((bench, scenario, metric, base_value,
                                 cur_value, None, False, "unjudged"))
                    continue
                change = relative_change(base_value, cur_value, direction)
                failed = gated and change > tolerance
                if failed:
                    failures.append((bench, scenario, metric))
                status = "FAIL" if failed else ("ok" if gated else "info")
                rows.append((bench, scenario, metric, base_value, cur_value,
                             change, gated, status))
    return rows, failures


def format_report(rows, failures, tolerance):
    lines = ["# Bench regression report", ""]
    lines.append(f"Tolerance: {tolerance:.0%} on each figure's headline "
                 "metric. Non-headline rows are advisory; unjudged rows "
                 "have no known direction and are never judged.")
    lines.append("")
    lines.append("| bench | scenario | metric | baseline | current | "
                 "change | gated | status |")
    lines.append("|---|---|---|---|---|---|---|---|")
    for bench, scenario, metric, base, cur, change, gated, status in rows:
        fmt = lambda v: "-" if v is None else f"{v:.4g}"
        delta = "-" if change is None else f"{-change:+.1%}"
        lines.append(f"| {bench} | {scenario} | {metric} | {fmt(base)} | "
                     f"{fmt(cur)} | {delta} | {'yes' if gated else 'no'} | "
                     f"{status} |")
    lines.append("")
    unjudged = sum(1 for row in rows if row[7] == "unjudged")
    if failures:
        summary = (f"**{len(failures)} gated regression(s):** " +
                   ", ".join(f"{b}/{s}/{m}" for b, s, m in failures))
    else:
        summary = "No gated regressions."
    lines.append(f"{summary} {unjudged} unjudged row(s).")
    lines.append("")
    return "\n".join(lines)


def self_test():
    """Injects a 20% degradation into every headline direction and checks
    the gate trips — proof the lane can actually fail."""
    baseline = {
        "tail_latency_modes": {"verdict": {"tail_win_ratio": 8.0,
                                           "throughput_ratio": 1.0}},
        "fig09_latency_opts": {"parallelism_100": {"latency_ratio": 3.3}},
    }
    # 20% worse on a higher-is-better headline = value drops 20%.
    degraded = {
        "tail_latency_modes": {"verdict": {"tail_win_ratio": 8.0,
                                           "throughput_ratio": 0.8}},
        "fig09_latency_opts": {"parallelism_100": {"latency_ratio": 2.64}},
    }
    rows, failures = compare(baseline, degraded, tolerance=0.15)
    if len(failures) != 2:
        print(f"self-test FAILED: expected 2 gated regressions, got "
              f"{failures}", file=sys.stderr)
        return 1
    # Within tolerance must pass: a 10% dip on a 15% gate.
    mild = {
        "tail_latency_modes": {"verdict": {"tail_win_ratio": 8.0,
                                           "throughput_ratio": 0.9}},
        "fig09_latency_opts": {"parallelism_100": {"latency_ratio": 2.97}},
    }
    rows, failures = compare(baseline, mild, tolerance=0.15)
    if failures:
        print(f"self-test FAILED: mild dip tripped the gate: {failures}",
              file=sys.stderr)
        return 1
    # A vanished archive must fail.
    rows, failures = compare(baseline, {"fig09_latency_opts":
                                        baseline["fig09_latency_opts"]},
                             tolerance=0.15)
    if not failures:
        print("self-test FAILED: missing BENCH json not flagged",
              file=sys.stderr)
        return 1
    # A metric with no known direction is listed, counted and never
    # judged, however far it moves.
    unjudged_base = {"ablation_packing": {"rr": {"containers": 4}}}
    unjudged_cur = {"ablation_packing": {"rr": {"containers": 40}}}
    rows, failures = compare(unjudged_base, unjudged_cur, tolerance=0.15)
    report = format_report(rows, failures, tolerance=0.15)
    row = "| ablation_packing | rr | containers | 4 | 40 | - | no | unjudged |"
    if failures or row not in report or "1 unjudged row(s)" not in report:
        print(f"self-test FAILED: unjudged metric not listed or it tripped "
              f"the gate: {failures}\n{report}", file=sys.stderr)
        return 1
    print("self-test passed: 20% injected regression trips the gate, a "
          "10% dip does not, a missing archive fails, an unjudged metric "
          "is listed and never fails.")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="bench/baselines",
                        help="directory of checked-in BENCH_*.json")
    parser.add_argument("--current", default=".",
                        help="directory of freshly produced BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed headline regression fraction "
                             "(default 0.15)")
    parser.add_argument("--report", default=None,
                        help="write a markdown diff report here")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate trips on an injected 20%% "
                             "regression")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())

    if not os.path.isdir(args.baseline):
        print(f"error: baseline directory {args.baseline} not found",
              file=sys.stderr)
        sys.exit(2)
    baselines = collect(args.baseline)
    if not baselines:
        print(f"error: no BENCH_*.json under {args.baseline}",
              file=sys.stderr)
        sys.exit(2)
    currents = collect(args.current)

    rows, failures = compare(baselines, currents, args.tolerance)
    report = format_report(rows, failures, args.tolerance)
    print(report)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report)

    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
