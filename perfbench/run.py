"""Benchmark of the `waring` library: one workload per run, closed loop.

    python3 perfbench/run.py --workload binary-ladder --seed 0 --seconds 20 --trace 0

One caller, one process, one thread: the workload's cases run one after
another as a pass, and passes repeat while the next one still fits in
`--seconds` (there is always at least one).  The last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines above it are a readable report.  `--trace 0` reports
the end-to-end metrics, `--trace 1` adds one pass with every layer
function wrapped and reports the per-layer metrics of that pass.  Times
are CPU seconds of this thread scaled to a nominal host speed (see
`hostprobe.HostProbe`); NOTES.md documents workloads and metrics.

The library is imported from `src/` of the checkout that holds this
file; without it the run stops with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("binary-ladder", "quartic-avoid", "ternary-odd", "cert-replay")
# set-ups per run, each in a fresh interpreter; setup_s is their median.
# After SETUP_MIN_REPEATS, stop once the set-ups have taken SETUP_BUDGET_S
# of wall time: cert-replay's run decompositions for several seconds.
SETUP_REPEATS = 7
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 10.0

# (layer, module, attribute or Class.method) for the traced run
TRACE_TARGETS = (
    ("roots", "roots", ("poly_gcd", "rational_roots", "aberth_roots",
                        "is_squarefree_binary")),
    ("linalg", "linalg", ("exact_nullspace", "exact_solve", "exact_rank",
                          "numeric_nullspace", "numeric_rank", "lstsq_solve")),
    ("apolarity", "apolarity", ("catalecticant", "apolar_initial_degree",
                                "cat_rank_table", "essential_variables")),
    ("forms", "forms", ("Form.__post_init__", "ProjectivePoint.__post_init__",
                        "Form.__mul__", "contract", "power_of_linear",
                        "chordal_distance", "parse_form")),
    ("binary", "binary", ("rank_binary", "border_rank_binary", "open_rank_binary",
                          "decompose_binary", "decompose_binary_avoiding",
                          "decompose_binary_bounded", "embed_binary", "form_on_line")),
    ("ternary", "ternary", ("decompose_ternary_odd", "annihilating_lines",
                            "split_on_lines", "SplitProblem.pieces",
                            "reducible_kernel_pair")),
    ("quartic", "quartic", ("quartic_decompose_open", "quartic_predecomp",
                            "quartic_brk3_decompose")),
    ("plane", "plane", ("rational_point_on_conic", "conic_parametrization",
                        "factor_rank_two_quadric")),
    ("avoidance", "avoidance", ("AvoidanceSet.contains",
                                "AvoidanceSet.restrict_to_line")),
    ("decomposition", "decomposition", ("Decomposition.residual",)),
    ("certify", "certify", ("verify_decomposition", "to_json", "from_json",
                            "replay")),
)
RAISED = ("binary.decompose_binary", "quartic.quartic_predecomp",
          "quartic.quartic_brk3_decompose", "ternary.annihilating_lines")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "terms_per_case": "terms",
    "peak_rss_mb": "MB",
}
OUTCOME_SHARES = ("fail_share", "breach_share", "replay_drift_share")


def function_names() -> list[str]:
    return [f"{layer}.{attr}" for layer, _, attrs in TRACE_TARGETS for attr in attrs]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer, _, _ in TRACE_TARGETS:
        units[f"{layer}.self_s"] = "s"
    for name in RAISED:
        units[f"{name}.raised"] = "count"
    units["ternary.tuple_yield"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.unattributed_s"] = "s"
    for name in OUTCOME_SHARES:
        units[name] = "ratio"
    return units


def measure_setup(name: str, seed: int) -> tuple[float, dict]:
    """Set the workload up several times with setupprobe.py.

    Each set-up runs in a fresh interpreter and is scaled to the nominal
    host there.  Returns the median scaled time and the cert-replay
    corpus of the first set-up.
    """
    times, corpora = [], []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS and (len(times) < SETUP_MIN_REPEATS or
                                          time.perf_counter() - start < SETUP_BUDGET_S):
        done = subprocess.run([sys.executable, str(HERE / "setupprobe.py"), name, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=150,
                              check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        times.append(result["seconds"])
        corpora.append(result["corpus"])
    if any(corpus != corpora[0] for corpus in corpora):
        print("  note: set-ups produced different cert-replay certificates")
    return statistics.median(times), corpora[0]


def load_cases(name: str, seed: int, corpus: dict):
    """The workload's cases in a seeded order.

    The host's speed drifts over seconds, and cases of one degree would
    otherwise run back to back, so a quantile that falls in that block
    would measure the host during a few seconds rather than the library.
    Shuffling spreads every block over the whole pass.
    """
    import workloads

    if name == "cert-replay":
        cases = workloads.replay_cases(seed, corpus)
    else:
        cases = workloads.WORKLOADS[name].build(seed)
    random.Random(seed).shuffle(cases)
    return cases


def run_passes(one_pass, seconds: float):
    """Repeat `one_pass` while the next pass still fits in `seconds` of wall time."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(one_pass())
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes


def make_trace(clock=time.thread_time):
    """A LayerTrace over TRACE_TARGETS, rebinding names in every waring module."""
    from layertrace import LayerTrace

    modules = [m for name, m in sys.modules.items()
               if name == "waring" or name.startswith("waring.")]
    targets = []
    for layer, module_name, attrs in TRACE_TARGETS:
        module = sys.modules[f"waring.{module_name}"]
        for attr in attrs:
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            targets.append((layer, owner, method))
    return LayerTrace(targets, modules, clock)


def traced_pass(one_pass, clock):
    trace = make_trace(clock)
    with trace.active():
        done = one_pass()
    return trace, done


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of the order statistics.  A
    workload mixes cases of very different cost, and the plain sample
    quantile jumps from one cost cluster to the next when a case or two
    moves across it; this estimate moves smoothly and averages the
    timing noise of the neighbouring samples.
    """
    import numpy as np  # after main() has pinned the BLAS to one thread

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64  # integration points per order statistic
    mid = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ x / weights.sum())


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics; every time is scaled to the nominal host.

    `peak_rss_mb` is this process's peak, which covers importing the
    library, building the cases and the passes, but not the set-ups.
    """
    seconds = [op.seconds for p in passes for op in p.ops]
    terms = [op.terms for op in passes[0].ops if op.outcome == "valid"]
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.seconds for p in passes),
        "latency_p50_ms": hd_quantile(seconds, 0.50) * 1e3,
        "latency_p75_ms": hd_quantile(seconds, 0.75) * 1e3,
        "terms_per_case": statistics.mean(terms) if terms else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def outcome_shares(passes) -> dict[str, float]:
    ops = [op for p in passes for op in p.ops]
    return {
        "fail_share": sum(op.failed for op in ops) / len(ops),
        "breach_share": sum(op.breach for op in ops) / len(ops),
        "replay_drift_share": sum(op.drift for op in ops) / len(ops),
    }


def per_layer(trace, done, pass_s: float, shares: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced pass; times scaled by its host factor."""
    factor = done.host_factor
    values = {}
    for name in function_names():
        values[f"{name}.calls"] = trace.calls(name)
        values[f"{name}.self_s"] = trace.self_s(name) / factor
    raw_totals = trace.layer_self_s()
    layer_totals = {k: v / factor for k, v in raw_totals.items()}
    for layer, _, _ in TRACE_TARGETS:
        values[f"{layer}.self_s"] = layer_totals[layer]
    for name in RAISED:
        values[f"{name}.raised"] = trace.raised(name)
    entry = "ternary.decompose_ternary_odd"
    pieces = trace.calls("ternary.SplitProblem.pieces")
    returned = trace.calls(entry) - trace.raised(entry)
    values["ternary.tuple_yield"] = returned / pieces if pieces else 0.0
    values["trace.overhead_ratio"] = done.seconds / pass_s
    values["trace.unattributed_s"] = (done.cpu_s - sum(raw_totals.values())) / factor
    values.update(shares)
    return values


def report(name, seed, cases, passes, e2e, shares) -> None:
    ops = [op for p in passes for op in p.ops]
    print(f"workload {name}  seed {seed}  cases {len(cases)}  passes {len(passes)}"
          f"  ops timed {len(ops)}  (closed loop, 1 caller)")
    for key, value in {**e2e, **shares}.items():
        unit = END_TO_END.get(key, "ratio")
        print(f"  {key:<20} {value:.6g} {unit}")
    counts: dict[str, int] = {}
    for op in passes[0].ops:
        counts[op.outcome] = counts.get(op.outcome, 0) + 1
    print("  outcomes per pass    " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    for op in passes[0].ops:
        if op.failed or not op.checked:
            note = "" if op.checked else " (VALID claim fails the benchmark's check)"
            print(f"    {op.label}: {op.outcome}{note}")
    print(f"  certificate_sha256   {passes[0].digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "waring" / "__init__.py").is_file():
        print(f"perfbench: no waring package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one thread: keep the BLAS under numpy from starting a pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    setup_s, corpus = measure_setup(args.workload, args.seed)
    import waring
    if Path(waring.__file__).resolve().parent != SRC / "waring":
        print(f"perfbench: imported waring from {waring.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import hostprobe
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    cases = load_cases(args.workload, args.seed, corpus)

    probe = hostprobe.HostProbe()

    def one_pass():
        return workloads.run_pass(workload, cases, probe)

    passes = run_passes(one_pass, args.seconds)
    e2e = end_to_end(passes, setup_s)
    shares = outcome_shares(passes)
    report(args.workload, args.seed, cases, passes, e2e, shares)
    print(f"  host_factor          {statistics.median(p.host_factor for p in passes):.4g}"
          " (reference time over nominal; raw CPU time = reported time x this)")
    if len({p.digest for p in passes}) > 1:
        print("  note: passes produced different certificate bytes")

    if args.trace:
        trace, done = traced_pass(one_pass, probe.clock)
        passes.append(done)
        metrics = per_layer(trace, done, e2e["pass_s"], shares)
        units = per_layer_units()
    else:
        metrics, units = e2e, END_TO_END
    ops = [op for p in passes for op in p.ops]
    result = {
        "correct": all(op.checked for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
