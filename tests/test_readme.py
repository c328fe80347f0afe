"""The README's library example runs as written, and its CLI examples parse
with the CLI's own parser."""

import os
import re
import shlex

import pytest

from pikappa import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _section(title: str) -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_surface_block_runs(monkeypatch):
    block = re.search(r"```python\n(.*?)```", _section("Library surface"),
                      re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})


def _cli_commands(block: str) -> list[list[str]]:
    """The block's commands: continuation lines joined, comments dropped."""
    lines = block.replace("\\\n", " ").splitlines()
    return [argv for argv in (shlex.split(line, comments=True)
                              for line in lines) if argv]


def test_cli_block_parses():
    # a renamed or removed flag fails here instead of leaving the doc stale
    block = re.search(r"```bash\n(.*?)```", _section("CLI"), re.S).group(1)
    commands = _cli_commands(block)
    assert len(commands) >= 7
    parser = cli.build_parser()
    for argv in commands:
        assert argv[0] == "pikappa", argv
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
