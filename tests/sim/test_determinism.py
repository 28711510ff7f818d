"""Two runs of the target-load experiment must agree bit for bit.

The simulator is meant to be a deterministic function of its seed: all
randomness flows through explicitly seeded ``random.Random`` streams,
and the kernel breaks ties by scheduling sequence number.  The hot-path
optimizations (event pooling, demux-as-callback, GC gating, generator
flattening) must preserve this — a divergence here means some
optimization leaked wall-clock state, iteration order, or shared
mutable state into the simulation.
"""

import dataclasses

from repro.harness.experiments import TargetLoadConfig, run_target_load

#: Fields that legitimately differ between identical runs (wall-clock
#: measurement) or compare by object identity (the config carries the
#: disk/et1 parameter dataclasses).
_NONDETERMINISTIC = {"wall_seconds", "config"}


def _stats(result) -> dict:
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in _NONDETERMINISTIC
    }


def test_target_load_repeats_identically():
    config = TargetLoadConfig(duration_s=1.0)
    first = _stats(run_target_load(config))
    second = _stats(run_target_load(config))
    assert first == second


#: ``_stats(run_target_load(TargetLoadConfig(duration_s=1.0)))`` as
#: recorded at commit ce76aee, before the client's restart procedures
#: moved into sans-IO generators.  A change that reorders, adds or
#: drops a simulated event moves ``kernel_events`` and the latencies;
#: a change that means to must say so and re-record these.
_GOLDEN = {
    "completed_txns": 473,
    "achieved_tps": 361.7526231178988,
    "force_mean_ms": 6.076100671418053,
    "force_p95_ms": 7.408166409452854,
    "rpcs_per_server_s": 120.58420770596625,
    "packets_per_server_s": 368.63586541823935,
    "server_cpu_utilization": 0.12733998255630954,
    "server_disk_utilization": 0.44142683323463294,
    "network_mbits_s": 7.113197659110347,
    "per_network_utilization": (0.3556598829555173, 0.3556598829555173),
    "bytes_per_server_s": 84408.9453941764,
    "messages_shed": 0,
    "failed_drivers": 0,
    "kernel_events": 44954,
    "sim_seconds": 31.0,
}


def test_target_load_matches_the_run_pinned_across_commits():
    assert _stats(run_target_load(TargetLoadConfig(duration_s=1.0))) == _GOLDEN


def test_seed_changes_the_run():
    base = TargetLoadConfig(duration_s=1.0)
    other = TargetLoadConfig(duration_s=1.0, seed=7)
    a = run_target_load(base)
    b = run_target_load(other)
    # same workload shape, different arrival randomness
    assert a.completed_txns != b.completed_txns or \
        a.force_mean_ms != b.force_mean_ms
