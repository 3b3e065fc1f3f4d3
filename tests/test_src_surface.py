"""Nothing in ``src/`` exists only for the tests.

A top-level function or class, or a non-dunder method, of ``src/repro``
is *test-only* when its name never appears as a ``Name`` or an
``Attribute`` anywhere in ``src/``, ``perfbench/*.py`` or
``examples/*.py`` (f-string fields included), nor as an identifier inside
a ``perfbench/`` string constant (``perfbench/layers.py`` names the
methods it times as ``"Class.method"`` strings).  Import aliases and
``__all__`` entries are not uses.  The scan is by name, so a definition
whose name collides with a used name (``median``, a dataclass field)
escapes it; the guard catches the common case, not every one.

A test-only definition belongs in ``tests/oracles/`` (a reference a test
compares against) or nowhere.  The few that stay are listed below with
the reason; the allowlist fails as soon as an entry is gone or gains a
user outside the tests, so it cannot rot.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Definitions only tests reach that stay in ``src/``, with the reason.
ALLOWLIST: dict[str, str] = {
    "repro.channel.channel.UnderwaterAcousticChannel.end_to_end_response_db": (
        "the analytic Fig. 3 response: the channel and environment tests "
        "measure it, and it reads the channel's private device chain"
    ),
    "repro.channel.multipath.MultipathModel.paths": (
        "the per-path view the multipath and golden tests check the "
        "precomputed tap arrays against"
    ),
    "repro.core.modem.AquaModem.build_ack": (
        "the paper's ACK step, listed in AquaModem's protocol table"
    ),
    "repro.core.modem.AquaModem.decode_ack": (
        "the paper's ACK step, listed in AquaModem's protocol table"
    ),
    "repro.core.modem.AquaModem.decode_header": (
        "the paper's receiver-ID step, listed in AquaModem's protocol table"
    ),
    "repro.experiments.sweep.Sweep.paired": (
        "documented API: README's experiments example pairs distances "
        "with seeds"
    ),
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.lru_cache(maxsize=None)
def _parse(pattern: str) -> tuple[tuple[Path, ast.Module], ...]:
    paths = sorted(ROOT.glob(pattern))
    return tuple((path, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in paths)


@functools.lru_cache(maxsize=None)
def _used_names() -> frozenset[str]:
    used: set[str] = set()
    for pattern in ("src/**/*.py", "perfbench/*.py", "examples/*.py"):
        in_perfbench = pattern.startswith("perfbench")
        for _, tree in _parse(pattern):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif (
                    in_perfbench
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                ):
                    used.update(_IDENTIFIER.findall(node.value))
    return frozenset(used)


def _src_definitions() -> dict[str, str]:
    """``{qualified name: bare name}`` of every scanned ``src/`` definition."""
    definitions: dict[str, str] = {}
    for path, tree in _parse("src/**/*.py"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            definitions[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _METHODS) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        definitions[f"{module}.{node.name}.{member.name}"] = member.name
    return definitions


def _test_only() -> set[str]:
    used = _used_names()
    return {qual for qual, name in _src_definitions().items() if name not in used}


def test_no_src_definition_is_reached_only_from_tests():
    unexpected = sorted(_test_only() - set(ALLOWLIST))
    assert not unexpected, (
        "src/ definitions nothing outside tests/ uses; delete them (with the "
        "tests whose only subject they are), move a test reference to "
        f"tests/oracles/, or allowlist them with a reason: {unexpected}"
    )


def test_allowlist_names_exist_and_stay_test_only():
    definitions = _src_definitions()
    gone = sorted(set(ALLOWLIST) - set(definitions))
    assert not gone, f"allowlisted names no longer defined in src/: {gone}"
    used_outside_tests = sorted(set(ALLOWLIST) - _test_only())
    assert not used_outside_tests, (
        f"allowlisted names now used outside tests/; drop them from ALLOWLIST: "
        f"{used_outside_tests}"
    )
    assert all(reason.strip() for reason in ALLOWLIST.values())


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append((node.lineno, bound))
    return unused


def test_src_modules_use_every_top_level_import():
    unused = [
        f"{path.relative_to(ROOT).as_posix()}:{line} {name}"
        for path, tree in _parse("src/**/*.py")
        if path.name != "__init__.py"
        for line, name in _unused_imports(tree)
    ]
    assert not unused, f"unused top-level imports: {unused}"
