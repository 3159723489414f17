"""The README's code runs as written."""
import re
import sqlite3
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading `## <section>`."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", body, re.DOTALL).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    conn = sqlite3.connect(tmp_path / "students.db")
    conn.execute("CREATE TABLE student (age INTEGER)")
    conn.executemany("INSERT INTO student VALUES (?)", [(23,), (19,), (31,), (20,)])
    conn.commit()
    conn.close()
    monkeypatch.chdir(tmp_path)
    exec(compile(_python_block("Library quick start"), str(README), "exec"), {})
    assert capsys.readouterr().out == "SELECT min(age) FROM student\n"
