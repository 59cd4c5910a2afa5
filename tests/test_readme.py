import math
import re
from pathlib import Path

import pytest

from dpgraph import PrivacyParams, calibrate_sigma

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The fenced python block under "## Library example" in README.md."""
    section = README.read_text().split("## Library example", 1)[1]
    match = re.match(r"\s*```python\n(.*?)\n```", section, re.DOTALL)
    assert match, "no python block opens the Library example section"
    return match.group(1)


def test_the_readme_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    report, result = namespace["report"], namespace["result"]
    assert report.bound == pytest.approx(1 / math.sqrt(10), abs=1e-12)
    assert result.sigma == calibrate_sigma(report.bound, PrivacyParams(1.0, 1e-5))
    assert capsys.readouterr().out.strip()
