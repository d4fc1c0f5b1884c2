"""README's "Programmatic API" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Programmatic API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_programmatic_api_example_runs():
    namespace: dict = {}
    exec(compile(_api_example(), str(README), "exec"), namespace)
    # the point is stationary and the CQ holds, so the example reaches check_snc
    assert namespace["verdict"].kind == "snc_holds"
