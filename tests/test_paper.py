"""The table of paper results against EXPERIMENTS.md and the CLI."""

import pathlib
import re

import pytest

from repro.cli import _cmd_paper, build_parser
from repro.paper import EXPERIMENTS

EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def _documented_commands() -> dict[str, list[str]]:
    """Heading id → the commands its section's ``**Bench:**`` line names."""
    found: dict[str, list[str]] = {}
    sections = re.split(r"^(?=#{1,3} )", EXPERIMENTS_MD.read_text(),
                        flags=re.MULTILINE)
    for section in sections:
        heading = re.match(r"#{2,3} ([EA]\d+) — ", section)
        bench = re.search(r"^\*\*Bench:\*\* `python -m repro ([\w-]+)`",
                          section, flags=re.MULTILINE)
        if heading and bench:
            found.setdefault(heading.group(1), []).append(bench.group(1))
    return found


def test_every_paper_heading_is_one_row_and_every_row_one_heading():
    assert _documented_commands() == {
        e.id: [e.command] for e in EXPERIMENTS}


def test_ids_and_commands_are_unique():
    assert len({e.id for e in EXPERIMENTS}) == len(EXPERIMENTS) == 20
    assert len({e.command for e in EXPERIMENTS}) == len(EXPERIMENTS)


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.id)
def test_every_row_is_a_command_with_its_defaults(experiment):
    args = build_parser().parse_args([experiment.command])
    assert args.func is _cmd_paper
    assert args.experiment is experiment
    for param in experiment.params:
        assert getattr(args, param.dest) == param.default

