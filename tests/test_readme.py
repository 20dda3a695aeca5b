"""README's examples, run as written, so its documented values cannot drift."""

import ast
import re
import shlex
from pathlib import Path

from domcover.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(heading, lang):
    """The first ```lang block under a ## heading of README."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def stated_value(comment):
    """The literal a trailing comment opens with, as in "(0, 3, 6), lexicographically
    first optimum"; None when it opens with prose."""
    cuts = [len(comment)] + [i for i in range(len(comment) - 1, -1, -1) if comment[i] == ","]
    for end in cuts:
        try:
            return ast.literal_eval(comment[:end])
        except (ValueError, SyntaxError):
            pass
    return None


def test_library_block_values():
    code = fenced("Library", "python")
    lines = code.splitlines()
    scope = {}
    checked = []
    for stmt in ast.parse(code).body:
        text = ast.get_source_segment(code, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(text, scope)
            continue
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
        want = stated_value(comment.strip())
        assert hash_ and want is not None, text
        got = eval(text, scope)
        # "a, b  # (a, b)" and "a, b  # a, b" state the same tuple
        assert got == want, (text, got, want)
        checked.append(text)
    assert len(checked) == 5


def test_command_line_examples_exit_0(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = fenced("Command line", "sh").splitlines()
    assert len(commands) == 10
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "domcover", line
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[-1]
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        assert out, line
        if target:
            Path(target).write_text(out, encoding="utf-8")
