"""The README's examples run as shown: its command-line session on its
problem file, and its Library block with the values in its comments."""

import re
import shlex
from fractions import Fraction as F
from pathlib import Path

from bernbound.cli import main
from conftest import encloses

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def _session():
    """The README's ``$ bernbound ...`` commands, each with its printed lines."""
    (block,) = [b for b in _blocks("sh") if "$ bernbound " in b]
    runs = []
    for run in block.strip().split("\n\n"):
        command, *printed = run.splitlines()
        runs.append((shlex.split(command.removeprefix("$ bernbound ")), printed))
    return runs


def test_command_line_session(tmp_path, monkeypatch, capsys):
    # The first JSON block is the problem file the session reads.
    (tmp_path / "problem.json").write_text(_blocks("json")[0])
    monkeypatch.chdir(tmp_path)
    runs = _session()
    assert [argv[0] for argv, _ in runs] == ["bounds", "certify", "minimize"]
    for argv, printed in runs:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == printed, argv


def test_library_block():
    (code,) = _blocks("python")
    namespace = {}
    exec(code, namespace)
    commented = []
    for line in code.splitlines():
        expression, _, comment = line.partition("  # ")
        try:
            compiled = compile(expression, "README.md", "eval")
        except SyntaxError:  # an import or an assignment
            continue
        commented.append((eval(compiled, namespace), comment.strip()))
    (enclosure, shown), (elevated, wider), (degree, used), (bracket, exact) = commented
    assert repr(enclosure) == shown
    assert wider == "never wider than the previous one"
    assert encloses(enclosure, elevated)
    assert repr(degree) == used == "57"
    # The bracket is the one the session's minimize run prints.
    assert exact == "exact bracket"
    (printed,) = [printed for argv, printed in _session() if argv[0] == "minimize"]
    shown = dict(line.split(": ", 1) for line in printed)
    assert bracket == tuple(F(shown[end].split(" ~ ")[0]) for end in ("lower", "upper"))
