"""The README's quick start and library snippet must run as written."""

import re
import shlex
from pathlib import Path

from nkg import errors
from nkg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    """The first fenced `language` block under the `## heading` section."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


def quick_start_commands() -> list[list[str]]:
    lines = readme_block("Quick start", "sh").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("nkg ")]


def test_quick_start_and_library_use_run(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("NKG_THRESHOLD", raising=False)
    monkeypatch.delenv("NKG_EMBED_URL", raising=False)
    monkeypatch.chdir(tmp_path)
    commands = quick_start_commands()
    assert [argv[0] for argv in commands] == [
        "fixture", "build", "normalize", "query", "query", "query", "query", "query", "eval",
    ]
    for argv in commands:
        assert main(argv) == 0, f"nkg {shlex.join(argv)}: {capsys.readouterr().err}"
    for name in ("battle.json", "raw.json", "norm.json", "norm.map.json"):
        assert (tmp_path / name).is_file()

    namespace: dict = {}
    exec(compile(readme_block("Library use", "python"), str(README), "exec"), namespace)
    assert namespace["raw"].frozen and namespace["norm"].normalized
    assert {hit.surface_label for hit in namespace["hits"]} == {"fight", "strike", "hit"}
    assert namespace["report"]


def test_exit_code_table_lists_the_codes_errors_carry():
    section = README.read_text(encoding="utf-8").split("\n## Exit codes\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    listed = [int(code) for code in re.findall(r"^\| (\d+) \|", section, re.MULTILINE)]
    carried = {
        cls.exit_code
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.NkgError)
    }
    assert sorted(listed) == sorted({0} | carried)
