"""The README's Library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = "".join(f"r{i},{i},{i + 0.5 * (-1) ** i},{i + 0.1 * i % 3 - 0.1}\n"
                   for i in range(20))
    Path("predictions.csv").write_text("id,y_true,M1,M2\n" + rows)
    exec(compile(library_example(), str(README), "exec"), {})
    svg = Path("error_space.svg").read_text()
    assert svg.startswith("<?xml")
    assert 'class="hex"' in svg and 'fill-opacity="0.6"' in svg  # hexbin and KDE drawn
