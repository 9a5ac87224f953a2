"""README's examples stay valid: the Python blocks run as written, and every
``bandit-trials`` command in the bash blocks parses."""

import re
import shlex
from pathlib import Path

import pytest

from bandit_trials import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_one_namespace(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "OperatingCharacteristics(" in capsys.readouterr().out


def readme_commands() -> list[list[str]]:
    """The arguments of each ``bandit-trials`` command in README's bash blocks,
    with backslash continuations joined and ``#`` comments dropped."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(), flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["bandit-trials"]:
                commands.append(words[1:])
    return commands


def test_readme_shows_every_command():
    assert {argv[0] for argv in readme_commands()} == {"table", "samplesize", "calibrate",
                                                       "simulate"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_cli_example_parses(argv):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: bandit-trials {' '.join(argv)}")
