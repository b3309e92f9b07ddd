"""Golden command-line transcripts, replayed byte for byte.

Each ``tests/golden/cli/<case>.json`` holds one command-line invocation,
a line of README's usage block or another case: its argv, exit code,
stdout and stderr.  ``tools/cli_transcripts.py`` defines the cases and
their input files and writes the transcripts:

    PYTHONPATH=src python tools/cli_transcripts.py
"""
import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tools"))
import cli_transcripts  # noqa: E402

CLI = pathlib.Path(cli_transcripts.OUT)


def test_every_case_has_one_transcript():
    assert sorted(p.stem for p in CLI.glob("*.json")) == sorted(cli_transcripts.CASES)


@pytest.mark.parametrize("case", sorted(cli_transcripts.CASES))
def test_transcript_replays(case):
    stored = (CLI / f"{case}.json").read_bytes()
    replayed = cli_transcripts.run(case)
    assert replayed == json.loads(stored)
    assert cli_transcripts.dumps(replayed).encode() == stored


def _ops(parser):
    """(command,) or (command, op) for each op choice of the parser."""
    for command, sub in parser._subparsers._group_actions[0].choices.items():
        ops = next((a.choices for a in sub._positionals._group_actions if a.choices), None)
        yield from ([(command, op) for op in ops] if ops else [(command,)])


def test_every_command_and_op_has_a_case():
    from punctual import cli

    starts = {tuple(argv[:n]) for argv, _ in cli_transcripts.CASES.values() for n in (1, 2)}
    assert [pair for pair in _ops(cli.build_parser()) if pair not in starts] == []
