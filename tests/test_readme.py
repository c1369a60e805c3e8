"""README's ``>>>`` examples run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples():
    # Each ```python block up to its closing fence, which a plain
    # doctest.testfile would read as part of the last expected value.
    text = README.read_text()
    parser, runner, report = doctest.DocTestParser(), doctest.DocTestRunner(verbose=False), []
    attempted = 0
    for block in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block[1], {}, README.name, str(README), lineno)
        failed, tried = runner.run(test, out=report.append)
        assert failed == 0, "".join(report)
        attempted += tried
    assert attempted >= 4
