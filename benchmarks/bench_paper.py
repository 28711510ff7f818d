"""Every paper result (E1–E11, A1–A9), checked at its stated size.

One case per row of :data:`repro.paper.EXPERIMENTS`: parse the row's
command with its defaults, run it once, print what ``python -m repro
<command>`` prints and assert the paper's claims (the row's
``check``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_paper.py -k E4

(``-k E1`` also selects E10 and E11; the node id
``benchmarks/bench_paper.py::test_paper[E1]`` selects E1 alone.)

A full pass writes ``BENCH_paper.json``: each row's parameters,
metrics and wall time under its id.  A ``-k`` selection leaves the
file as it is, so it always describes one pass on one machine.
"""

import time

import pytest

# the modules the rows' runs import, loaded before any row's timer
# starts so a row's wall time does not depend on which rows ran first
import repro.analysis  # noqa: F401
import repro.harness.churn  # noqa: F401
import repro.harness.experiments  # noqa: F401
from repro.cli import build_parser
from repro.paper import EXPERIMENTS

from ._emit import emit, emit_json

#: row id → (parameters, metrics) of the rows run in this session
_recorded: dict[str, tuple[dict, dict]] = {}


def _record(experiment, args, result, wall_seconds: float) -> None:
    """Keep this row's figures; write ``BENCH_paper.json`` once every
    row has run."""
    _recorded[experiment.id] = (
        {param.dest: getattr(args, param.dest)
         for param in experiment.params},
        {**(experiment.metrics(result) if experiment.metrics else {}),
         "wall_seconds": wall_seconds})
    if len(_recorded) < len(EXPERIMENTS):
        return
    emit_json("paper", {
        "params": {eid: params for eid, (params, _) in _recorded.items()},
        "metrics": {eid: metrics for eid, (_, metrics) in _recorded.items()},
        "wall_seconds": sum(m["wall_seconds"]
                            for _, m in _recorded.values()),
    })


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.id)
def test_paper(experiment):
    args = build_parser().parse_args([experiment.command])
    t0 = time.perf_counter()
    result = experiment.run(args)
    wall_seconds = time.perf_counter() - t0
    for block in experiment.render(result, args):
        emit("")
        emit(block)
    _record(experiment, args, result, wall_seconds)
    experiment.check(result, args)
