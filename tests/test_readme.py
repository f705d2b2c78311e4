"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_block(heading: str) -> str:
    """The first python block under a README heading, verbatim."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_debiased_cg_lowers_the_full_batch_loss(capsys):
    exec(compile(_code_block("Library example"), str(README), "exec"), {})
    out = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert out.keys() == {"anchor", "debiased final"}
    assert float(out["debiased final"]) < float(out["anchor"])
