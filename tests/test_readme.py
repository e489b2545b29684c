"""README.md's library quick start runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_blocks_run(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], flags=re.S)
    assert len(blocks) == 2
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README quick start block {i}", "exec"), {})
        assert capsys.readouterr().out.strip()
