from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_snippet_runs(toy):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    device, graph, lib = toy
    namespace = {"device": device, "graph": graph, "lib": lib}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["result"].design_latency == 13
    assert namespace["report"]["verdict"] == "optimal"


def test_runtime_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "fado").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "fado" or top in sys.stdlib_module_names, (path.name, name)
