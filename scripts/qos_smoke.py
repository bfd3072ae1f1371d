#!/usr/bin/env python
"""QoS smoke: a tiny 2-requester WRR run gated on fairness and
determinism.

Usage::

    PYTHONPATH=src python scripts/qos_smoke.py

Runs the canonical QoS scenario (:func:`repro.experiments.runner.run_qos`
— two CPU cores vs a streaming agent) at a sub-second scale under
equal-weight WRR and gates on:

* **conservation** — the per-requester integer cycle counters fold back
  to the aggregate channel stack exactly (the accountants raise on any
  exactness violation; this script additionally re-checks the fold);
* **fairness** — the per-requester average read latencies are within a
  generous tolerance of each other. WRR equalizes *service*, so under
  symmetric contention neither domain's reads may wait wildly longer
  than the other's. Full-run average bandwidth is deliberately not the
  metric: in a closed-loop run it is fixed by the workload (docs/qos.md);
* **determinism** — a second identical run produces a bit-identical
  :func:`~repro.reliability.fingerprint.qos_fingerprint` digest;
* **engine parity** — the same run under ``engine="reference"`` (the
  re-plan-every-step oracle) produces the same digest as the default
  packed engine, which runs the QoS arbiters in its own loop.

Exit status 0 on success, 1 with a pointed message on any gate failure.
"""

from __future__ import annotations

import sys

#: Per-requester mean read latency may differ by at most this factor
#: under equal-weight WRR. Loose by design: the domains run different
#: access patterns (random CPU vs streaming agent), so their row-hit
#: rates — and thus their base latencies — legitimately differ; the
#: gate catches a scheduler that starves a domain outright.
LATENCY_BALANCE_FLOOR = 0.30

#: Accesses per CPU core; the agent issues 2x (run_qos default).
SMOKE_ACCESSES = 300


def smoke_scale():
    from repro.experiments.config import ExperimentScale

    return ExperimentScale(
        "qos-smoke",
        synthetic_accesses=SMOKE_ACCESSES,
        graph_scale=8,
        graph_degree=4,
    )


def main() -> int:
    from repro.experiments.runner import run_qos
    from repro.reliability.fingerprint import qos_fingerprint
    from repro.stacks.bandwidth import BandwidthStackAccountant
    from repro.stacks.requester import fold_interference

    scale = smoke_scale()
    result = run_qos(scheduling="wrr", scale=scale, guard=False)

    # Gate 1: exact conservation at the system level.
    rows = result.per_requester_bandwidth_cycles()
    aggregate = BandwidthStackAccountant(result.spec).account_cycles(
        result.memory.log, result.total_cycles
    )[0]
    if fold_interference(rows) != aggregate:
        print("qos_smoke: FAIL — per-requester counters do not fold "
              "back to the aggregate channel stack")
        return 1
    print(f"qos_smoke: conservation OK over {result.total_cycles} cycles, "
          f"requesters {sorted(rows)}")

    # Gate 2: fairness — neither domain starved of latency.
    latency = result.per_requester_latency_stacks()
    waits = {r: stack.total for r, stack in latency.items()}
    if len(waits) < 2:
        print(f"qos_smoke: FAIL — expected 2 requester domains with "
              f"reads, got {sorted(waits)}")
        return 1
    balance = min(waits.values()) / max(waits.values())
    detail = ", ".join(
        f"R{r}={ns:.1f}ns" for r, ns in sorted(waits.items())
    )
    if balance < LATENCY_BALANCE_FLOOR:
        print(f"qos_smoke: FAIL — latency balance {balance:.3f} below "
              f"{LATENCY_BALANCE_FLOOR} ({detail})")
        return 1
    print(f"qos_smoke: fairness OK — balance {balance:.3f} ({detail})")

    # Gate 3: determinism — identical rerun, identical QoS digest.
    digest = qos_fingerprint(result)["digest"]
    rerun = run_qos(scheduling="wrr", scale=scale, guard=False)
    rerun_digest = qos_fingerprint(rerun)["digest"]
    if digest != rerun_digest:
        print(f"qos_smoke: FAIL — rerun digest {rerun_digest[:16]} != "
              f"{digest[:16]}")
        return 1
    print(f"qos_smoke: determinism OK — digest {digest[:16]}")

    # Gate 4: engine parity — the reference oracle agrees with packed.
    reference = run_qos(
        scheduling="wrr", scale=scale, guard=False, engine="reference"
    )
    reference_digest = qos_fingerprint(reference)["digest"]
    if reference_digest != digest:
        print(f"qos_smoke: FAIL — engine='reference' digest "
              f"{reference_digest[:16]} != packed {digest[:16]}")
        return 1
    print("qos_smoke: engine parity OK — packed == reference")
    print("qos_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
