"""Every name and every optional parameter in src/psrnn is reached from
outside tests/.

Library code that only tests call either moves to tests/oracles.py or is
deleted. A function, a class or a method of a class (but a dunder) counts as
reached when its name occurs as a word in another src/psrnn module, in its
own module outside its definition, in scripts/*.py or in perfbench/*.py.
Re-exports in __init__.py do not count.

An option only tests set is deleted too. A parameter with a default counts
as passed when some call in src/psrnn, scripts/*.py or perfbench/*.py to a
function of that name passes it, by keyword or by position. A dataclass
field with a default is a parameter of its class, and a keyword given to any
`replace` call passes it too. A call with *args or **kwargs passes every
parameter it could reach. ALLOWED_UNPASSED lists the exceptions and why
each stays; an entry the check no longer finds fails the test too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED_UNPASSED = {f"layers.py:AdamState({state})":
                    "optimizer state that starts empty, not an option"
                    for state in ("m", "v", "step_count")}


def _src_modules(root: Path) -> dict[Path, str]:
    return {p: p.read_text() for p in sorted((root / "src" / "psrnn").glob("*.py"))
            if p.name != "__init__.py"}


def _outside(root: Path) -> list[str]:
    return [p.read_text() for pattern in ("scripts/*.py", "perfbench/*.py")
            for p in sorted(root.glob(pattern))]


def _definitions(tree: ast.Module):
    """(qualified name, node) of every module-level function and class, and
    of every method of a module-level class but its dunders."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, defs[:2]) and not m.name.startswith("__"))


def unreached_names(root: Path = ROOT) -> list[str]:
    modules = _src_modules(root)
    outside = _outside(root)
    missing = []
    for path, text in modules.items():
        lines = text.splitlines()
        for qualname, node in _definitions(ast.parse(text)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "\n".join(lines[: first - 1] + lines[node.end_lineno :])
            others = [t for p, t in modules.items() if p != path]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in [rest, *others, *outside]):
                missing.append(f"{path.name}:{qualname}")
    return missing


def _is_dataclass(node: ast.ClassDef) -> bool:
    called = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in called)


def _optional_parameters(tree: ast.Module):
    """(name, qualified name, parameter, position, is_field) of every
    parameter with a default; position is the index a call's positional
    arguments fill, or None for a keyword-only parameter. A method's self
    does not count. A dataclass field is a parameter of its class."""
    found = []

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                    found.extend((node.name, prefix + node.name, f.target.id, i, True)
                                 for i, f in enumerate(fields) if f.value is not None)
                visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                first_default = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first_default:], first_default):
                    found.append((node.name, prefix + node.name, arg.arg, i - bound, False))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        found.append((node.name, prefix + node.name, arg.arg, None, False))
                visit(node.body, f"{prefix}{node.name}.", False)

    visit(tree.body, "", False)
    return found


def _passed(texts) -> dict[str, tuple[int, set]]:
    """Per called name: the most positional arguments any call passes (a
    starred argument counts as all) and every keyword passed (None for **)."""
    passed: dict[str, tuple[int, set]] = {}
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            count, keywords = passed.get(name, (0, set()))
            if any(isinstance(a, ast.Starred) for a in node.args):
                count = float("inf")
            passed[name] = (max(count, len(node.args)),
                            keywords | {k.arg for k in node.keywords})
    return passed


def unpassed_parameters(root: Path = ROOT) -> list[str]:
    """`module.py:qualname(parameter)` of every optional parameter of src/psrnn
    that no call outside tests/ passes."""
    modules = _src_modules(root)
    passed = _passed([*modules.values(), *_outside(root)])
    replaced = passed.get("replace", (0, set()))[1]
    missing = []
    for path, text in modules.items():
        for name, qualname, param, position, is_field in _optional_parameters(ast.parse(text)):
            count, keywords = passed.get(name, (0, set()))
            if is_field:
                keywords = keywords | replaced
            by_position = position is not None and position < count
            if not (by_position or param in keywords or None in keywords):
                missing.append(f"{path.name}:{qualname}({param})")
    return missing


def parameter_problems(root: Path = ROOT, allowed=ALLOWED_UNPASSED) -> list[str]:
    found = set(unpassed_parameters(root))
    return ([f"{p}: only tests pass it" for p in sorted(found - set(allowed))]
            + [f"{p}: stale allow-list entry" for p in sorted(set(allowed) - found)])


def test_every_src_name_is_reached_outside_tests():
    assert unreached_names() == []


def test_every_optional_parameter_is_passed_outside_tests():
    assert parameter_problems() == []


def test_parameter_check_sees_test_only_keywords_and_stale_entries(tmp_path):
    src = tmp_path / "src" / "psrnn"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "def f(x, flag=False, *, mode='a'):\n    return x\n\n\n"
        "class C:\n    def g(self, k=1):\n        return k\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text("f(1, mode='b')\nC().g(2)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text("f(1, flag=True)\n")
    assert unpassed_parameters(tmp_path) == ["m.py:f(flag)"]
    assert parameter_problems(tmp_path, {}) == ["m.py:f(flag): only tests pass it"]
    stale = {"m.py:f(flag)": "kept", "m.py:f(mode)": "now passed", "m.py:h(y)": "deleted"}
    assert parameter_problems(tmp_path, stale) == [
        "m.py:f(mode): stale allow-list entry", "m.py:h(y): stale allow-list entry"]


def test_parameter_check_sees_dataclass_fields(tmp_path):
    src = tmp_path / "src" / "psrnn"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "from dataclasses import dataclass, replace\n\n\n"
        "@dataclass(frozen=True)\nclass Cfg:\n    size: int\n    a: int = 1\n"
        "    b: int = 2\n    c: int = 3\n    d: int = 4\n\n\n"
        "@dataclass\nclass State:\n    count: int = 0\n\n\n"
        "def make():\n    return replace(Cfg(8, 2), c=5)\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text("Cfg(8, b=3)\n'text'.replace('c', 'd')\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text("Cfg(8, d=1)\nState(count=2)\n")
    # a by position, b by keyword, c through replace; d and count only in tests
    assert unpassed_parameters(tmp_path) == ["m.py:Cfg(d)", "m.py:State(count)"]


def test_name_check_sees_methods(tmp_path):
    src = tmp_path / "src" / "psrnn"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "class C:\n    def __len__(self):\n        return 0\n\n"
        "    @property\n    def size(self):\n        return self.used()\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def only_tested(self):\n        return 2\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text("print(C().size)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text("C().only_tested()\n")
    # a dunder is never flagged; `used` is called from `size`, in its own module
    assert unreached_names(tmp_path) == ["m.py:C.only_tested"]
