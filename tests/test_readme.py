"""The README's library example runs as written and gives the results its
comments state."""

import re
from pathlib import Path

import pytest

_README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_gives_its_commented_results():
    blocks = re.findall(r"^```python\n(.*?)^```$", _README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(_README), "exec"), ns)
    model = ns["model"]
    assert (model.a0, model.a1, model.b0, model.b1) == (2.0, 0.4, 2.0, 0.4)
    assert str(model) == "H(s) = (0.4*s + 2) / (s^2 + 0.4*s + 2)"
    assert round(ns["frequency_response"](model, 3.0).magnitude, 4) == 0.3284
    assert ns["critical_frequencies"](ns["stability_constraint"](model)) == [2.0]
    assert ns["is_stable_at"](model, 3.0) is True
    assert len(ns["report"].ratios) == 2
    for ratio in ns["report"].ratios:
        assert ratio == pytest.approx(0.3284, rel=0.01)
    assert ns["verdict"].outcome == "pass"
