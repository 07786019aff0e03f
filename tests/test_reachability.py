"""Every top-level name in src/psrnn is reached from outside tests/.

Library code that only tests call either moves to tests/oracles.py or is
deleted. A function or class counts as reached when its name occurs as a
word in another src/psrnn module, in its own module outside its
definition, in scripts/*.py or in perfbench/*.py. Re-exports in
__init__.py do not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unreached_names(root: Path = ROOT) -> list[str]:
    modules = {p: p.read_text() for p in sorted((root / "src" / "psrnn").glob("*.py"))
               if p.name != "__init__.py"}
    outside = [p.read_text() for pattern in ("scripts/*.py", "perfbench/*.py")
               for p in sorted(root.glob(pattern))]
    missing = []
    for path, text in modules.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "\n".join(lines[: first - 1] + lines[node.end_lineno :])
            others = [t for p, t in modules.items() if p != path]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in [rest, *others, *outside]):
                missing.append(f"{path.name}:{node.name}")
    return missing


def test_every_src_name_is_reached_outside_tests():
    assert unreached_names() == []
