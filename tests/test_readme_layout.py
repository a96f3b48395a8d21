"""README's Layout table names every module of the package, and no other."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_layout_table_names_every_module():
    section = (ROOT / "README.md").read_text(encoding="utf-8") \
        .split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [ln for ln in section.splitlines() if ln.startswith("| `xbarsim.")]
    named = {m for row in rows
             for m in re.findall(r"`xbarsim\.(\w+)`", row.split(" | ")[0])}
    modules = {p.stem for p in (ROOT / "src" / "xbarsim").glob("*.py")
               if p.stem != "__init__"}
    assert sorted(modules - named) == [], "modules missing from the table"
    assert sorted(named - modules) == [], "table rows without a module"
