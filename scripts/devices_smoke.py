#!/usr/bin/env python
"""Device-library smoke: every preset runs, conserves, and is
deterministic.

Usage::

    PYTHONPATH=src python scripts/devices_smoke.py

Runs a tiny fixed workload (2-core random, 20% stores) on every
registered device preset and gates on:

* **conservation** — the bandwidth stack sums to the device's
  *aggregate* peak exactly (sub-/pseudo-channels included), and the
  latency stack is positive;
* **bit identity** — ``device="ddr4-2400"`` produces the same result
  fingerprint as not selecting a device at all (the registry path must
  not perturb the paper's baseline);
* **determinism** — a second identical run of every preset produces a
  bit-identical :func:`~repro.reliability.fingerprint.result_fingerprint`
  digest, composite multi-channel devices included.

Exit status 0 on success, 1 with a pointed message on any gate failure.
"""

from __future__ import annotations

import sys

#: Accesses per core; keeps the whole sweep sub-second per preset.
SMOKE_ACCESSES = 300

#: Conservation is exact up to float summation order.
REL_TOL = 1e-9


def smoke_scale():
    from repro.experiments.config import ExperimentScale

    return ExperimentScale(
        "devices-smoke",
        synthetic_accesses=SMOKE_ACCESSES,
        graph_scale=8,
        graph_degree=4,
    )


def run(device, scale):
    from repro.experiments.runner import run_synthetic

    return run_synthetic(
        "random", cores=2, store_fraction=0.2,
        scale=scale, guard=False, device=device,
    )


def main() -> int:
    from repro.devices import DEVICES, make_device
    from repro.reliability.fingerprint import result_fingerprint

    scale = smoke_scale()

    # Gate 1: the registry path must not perturb the paper's baseline.
    baseline = result_fingerprint(run(None, scale))
    via_registry = result_fingerprint(run("ddr4-2400", scale))
    if baseline["digest"] != via_registry["digest"]:
        print("devices_smoke: FAIL — device='ddr4-2400' is not "
              "bit-identical to the deviceless baseline")
        return 1
    print(f"devices_smoke: ddr4-2400 bit identity OK — digest "
          f"{baseline['digest'][:16]}")

    for name in DEVICES:
        preset = make_device(name)
        result = run(name, scale)

        # Gate 2: exact stack conservation against the aggregate peak.
        bandwidth = result.bandwidth_stack(name)
        peak = preset.peak_bandwidth_gbps
        if abs(bandwidth.total - peak) > REL_TOL * peak:
            print(f"devices_smoke: FAIL — {name} bandwidth stack sums "
                  f"to {bandwidth.total!r}, peak is {peak!r}")
            return 1
        latency = result.latency_stack(label=name)
        if not latency.total > 0:
            print(f"devices_smoke: FAIL — {name} latency stack total "
                  f"{latency.total!r}")
            return 1

        # Gate 3: bit-identical rerun, channel composition included.
        digest = result_fingerprint(result)["digest"]
        rerun_digest = result_fingerprint(run(name, scale))["digest"]
        if digest != rerun_digest:
            print(f"devices_smoke: FAIL — {name} rerun digest "
                  f"{rerun_digest[:16]} != {digest[:16]}")
            return 1
        utilization = (bandwidth["read"] + bandwidth["write"]) / peak
        print(f"devices_smoke: {name} OK — {preset.channels} channel(s), "
              f"{peak:.1f} GB/s peak, {utilization:.1%} utilized, "
              f"digest {digest[:16]}")

    print("devices_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
