"""README's "Programmatic API" examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_examples() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Programmatic API", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_section_has_the_user_function_example():
    assert len(_api_examples()) == 2
    assert "SmoothFunction(values=" in _api_examples()[1]


@pytest.mark.parametrize("index", range(len(_api_examples())))
def test_programmatic_api_example_runs(index):
    namespace: dict = {}
    exec(compile(_api_examples()[index], str(README), "exec"), namespace)
    # each example reaches check_snc at a stationary point with a qualified
    # constraint set, and the form is positive there
    assert namespace["verdict"].kind == "snc_holds"
