"""The README's examples run as written: every `$ tauq ...` line of its sh
blocks prints the lines under it, and every commented call of the Library
block returns what its comment says."""
import re
import shlex
from pathlib import Path

from tauq.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _cli_examples():
    examples = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output.strip("\n").splitlines()))
    return examples


def test_cli_examples_print_what_the_readme_shows(capsys):
    examples = _cli_examples()
    assert len(examples) == 5
    for command, expected in examples:
        argv = shlex.split(command)
        assert argv[0] == "tauq", command
        assert main(argv[1:]) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command


def test_library_calls_return_what_the_comments_say():
    (block,) = _blocks("python")
    namespace, commented = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        assert comment.strip().startswith(repr(value)), line
        checks = re.search(r"(\d+) exact checks", comment)
        if checks:
            assert value is True
            report = eval(code.strip().removesuffix(".ok"), namespace)
            assert report.total == report.passes == int(checks.group(1))
        commented += 1
    assert commented == 4
