"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setupprobe.py <workload> <seed>

The set-up is `import waring` plus building the workload's cases; for
cert-replay that means running the decompositions whose certificates
are replayed.  Each part is scaled to the nominal host by the host
factor sampled just before, during and just after it (see hostprobe.py).

The last line of standard output is a JSON object: `seconds`, the scaled
set-up time, and `corpus`, the cert-replay certificates (empty for the
other workloads), so that the measuring process neither pays for
building them nor keeps their memory peak.
"""

from __future__ import annotations

import importlib
import os
import sys

from hostprobe import HostProbe

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# reference samples taken right before and right after each part
BRACKET_SAMPLES = 5
# the import takes about 0.1 s, so it is sampled more often than a pass
IMPORT_EVERY_S = 0.02


def timed(probe: HostProbe, work):
    """Run work() with `probe` sampling around and during it.

    Returns work's CPU time scaled by the probe's host factor, and its result.
    """
    before = probe.clock()
    for _ in range(BRACKET_SAMPLES):
        probe.sample()
    with probe.running():
        start = probe.clock()
        result = work()
        seconds = probe.clock() - start
    for _ in range(BRACKET_SAMPLES):
        probe.sample()
    return seconds / probe.factor(before, probe.clock()), result


def build(name: str, seed: int) -> dict:
    """Build the workload's cases; return the cert-replay corpus (else empty)."""
    import workloads

    if name == "cert-replay":
        return workloads.replay_corpus(seed)
    workloads.WORKLOADS[name].build(seed)
    return {}


def main(name: str, seed: int) -> None:
    sys.path.insert(0, SRC)
    # the benchmark's workloads module imports numpy and waring
    import_s, _ = timed(HostProbe(IMPORT_EVERY_S), lambda: importlib.import_module("workloads"))
    build_s, corpus = timed(HostProbe(), lambda: build(name, seed))
    import json

    print(json.dumps({"seconds": import_s + build_s, "corpus": corpus}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
