"""README's configuration key table and CLI recipes match the code."""

import re
import shlex
import time
from pathlib import Path

from ddspin import cli
from ddspin.experiment import CONFIG_FIELDS

README = (Path(__file__).parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    """From the heading to the next heading of the same level."""
    start = README.index(title)
    end = README.find("\n" + title.split()[0] + " ", start + len(title))
    return README[start:end if end >= 0 else None]


def _fenced(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def test_config_key_table_matches_the_field_table():
    keys = re.findall(r"^\| `(\w+)` \|", _section("### Run configuration format"),
                      flags=re.M)
    assert keys == [field.key for field in CONFIG_FIELDS]


def test_recipes_run(tmp_path, monkeypatch):
    recipes = _section("## Recipes")
    for block in _fenced(recipes, "ini"):
        name = block.splitlines()[0].removeprefix("# ")
        (tmp_path / name).write_text(block)
    commands = [shlex.split(line) for block in _fenced(recipes, "sh")
                for line in block.splitlines() if line.startswith("ddspin ")]
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    for argv in commands:
        assert cli.main(argv[1:]) == 0, " ".join(argv)
    assert time.perf_counter() - start < 2.0
