from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

from mutants import MUTANTS

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


def test_every_mutant_entry_names_text_and_tests_that_exist():
    # ``tests/mutants.py`` refuses a stale entry only when it runs; this finds
    # one in milliseconds: an old text not in its file exactly once, or a
    # listed test function its file no longer defines
    defined = {}
    for mutant in MUTANTS:
        source = (ROOT / "src" / "fado" / mutant.file).read_text(encoding="utf-8")
        assert source.count(mutant.old) == 1, mutant.name
        for node_id in mutant.tests:
            path, name = node_id.split("::")
            if path not in defined:
                tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
                defined[path] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert name.split("[")[0] in defined[path], (mutant.name, node_id)
