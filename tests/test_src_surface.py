"""Nothing in ``src/`` exists only for the tests.

Definitions: a non-dunder method of a top-level ``src/repro`` class is
*test-only* when nothing in ``src/``, ``perfbench/*.py`` or
``examples/*.py`` (f-string fields included) reaches its name through an
attribute access (``obj.name``) or a string constant that is a whole
dotted identifier (``perfbench/layers.py`` names the methods it times as
``"Class.method"`` strings; ``getattr(routing, "has_route")``).  A
top-level function or class is test-only when its name appears there in
neither of these ways nor as a bare ``Name``.  A local variable or a word
of prose that shares a method's name therefore does not hide it.  Import
aliases and ``__all__`` entries are not uses.  The scan is by name, so a
definition whose name collides with a used one (``median``, a dataclass
field) escapes it; the guard catches the common case, not every one.

A test-only definition belongs in ``tests/oracles/`` (a reference a test
compares against) or nowhere.  The few that stay are listed below with
the reason; the allowlist fails as soon as an entry is gone or gains a
user outside the tests, so it cannot rot.

Options: a parameter with a default, of a top-level function or of a
method of a top-level class (calling a class sets its ``__init__``
parameters), is *test-only* when no call in ``src/``, ``perfbench/*.py``
or ``examples/*.py`` to a callee of the same name passes it -- by
keyword, by position, or through ``*`` or ``**``.  Its default is then
the only value any workload runs, so it is a constant: delete the
parameter and the code only its other values reached.  The scan is by
callee name too, so an option whose name is passed to a namesake
escapes it.  The options that stay are listed in ``OPTION_ALLOWLIST``
with the reason, under the same staleness rule.

Fields: a field with a default that the ``__init__`` of a top-level
``src/`` dataclass takes is an option of that class.  It is test-only
when no call there passes it: by keyword or position, or through ``*``
or ``**``, in a call to the class (by name) or to ``cls(...)`` in the
class's own body, or by keyword to any ``replace(...)``.  State is
exempt: a field of a non-frozen dataclass that ``src/`` assigns after
construction (``obj.name = ...``, or ``self.name = ...`` in that class's
own body).  A container the class fills as it runs, and that not even a
test passes, is declared ``field(init=False)``.  The fields that stay
are listed in ``FIELD_ALLOWLIST`` with the reason, under the same
staleness rule.
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
    "repro.experiments.records.ResultSet.lookup": (
        "documented API: the experiments examples of README and of the "
        "repro.experiments docstring look a record up by scenario fields"
    ),
    "repro.experiments.sweep.Sweep.paired": (
        "documented API: README's experiments example pairs distances "
        "with seeds"
    ),
}

#: Options only tests set that stay in ``src/``, as ``"<qualified def>(<param>)"``.
OPTION_ALLOWLIST: dict[str, str] = {
    "repro.cli.main(argv)": (
        "the entry point: `python -m repro.cli` passes nothing so argparse "
        "reads sys.argv; tests pass argument lists"
    ),
    "repro.channel.channel.UnderwaterAcousticChannel.transmit(include_noise)": (
        "test seam: leaving the random noise realization out isolates the "
        "deterministic propagation the fast-path golden pins"
    ),
    "repro.channel.physics.sound_speed_m_s(temperature_c)": (
        "an input of Mackenzie's sound-speed equation, a function of the water"
    ),
    "repro.channel.physics.sound_speed_m_s(salinity_ppt)": (
        "an input of Mackenzie's sound-speed equation, a function of the water"
    ),
    "repro.channel.physics.sound_speed_m_s(depth_m)": (
        "an input of Mackenzie's sound-speed equation, a function of the water"
    ),
}

_DOTTED_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", re.ASCII)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.lru_cache(maxsize=None)
def _parse(pattern: str) -> tuple[tuple[Path, ast.Module], ...]:
    paths = sorted(ROOT.glob(pattern))
    return tuple((path, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in paths)


@functools.lru_cache(maxsize=None)
def _used_names() -> tuple[frozenset[str], frozenset[str]]:
    """``(bare names, names reached as attributes)`` outside the tests.

    An attribute access ``obj.name`` or a string constant that is a whole
    dotted identifier (``"Class.method"``, ``"has_route"``) reaches each
    of its parts as an attribute.
    """
    bare: set[str] = set()
    attributes: set[str] = set()
    for pattern in ("src/**/*.py", "perfbench/*.py", "examples/*.py"):
        for _, tree in _parse(pattern):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    bare.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _DOTTED_IDENTIFIER.fullmatch(node.value)
                ):
                    attributes.update(node.value.split("."))
    return frozenset(bare), frozenset(attributes)


def _src_definitions() -> dict[str, tuple[str, bool]]:
    """``{qualified name: (bare name, is a method)}`` of every scanned
    ``src/`` definition."""
    definitions: dict[str, tuple[str, bool]] = {}
    for path, tree in _parse("src/**/*.py"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            definitions[f"{module}.{node.name}"] = (node.name, False)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _METHODS) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        definitions[f"{module}.{node.name}.{member.name}"] = (
                            member.name, True,
                        )
    return definitions


def _test_only() -> set[str]:
    bare, attributes = _used_names()
    return {
        qual
        for qual, (name, method) in _src_definitions().items()
        if name not in attributes and (method or name not in bare)
    }


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


# ------------------------------------------------------------------ options
def _defaulted(function: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """``(name, call position)`` of each parameter with a default.

    The position counts the arguments a call passes (``self``/``cls`` of a
    bound method is not passed); keyword-only parameters have none.
    """
    args = function.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    offset = 1 if bound else 0
    options = [
        (arg.arg, index - offset)
        for index, arg in enumerate(positional)
        if index >= first_default
    ]
    options += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return options


def _src_options() -> dict[str, tuple[str, str, int | None]]:
    """``{"<qualified def>(<param>)": (callee name, param, position)}``."""
    options = {}
    for path, tree in _parse("src/**/*.py"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, _METHODS):
                members = [(f"{module}.{node.name}", node.name, node, False)]
            elif isinstance(node, ast.ClassDef):
                members = [
                    (
                        f"{module}.{node.name}.{member.name}",
                        node.name if member.name == "__init__" else member.name,
                        member,
                        not any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in member.decorator_list
                        ),
                    )
                    for member in node.body
                    if isinstance(member, _METHODS)
                ]
            else:
                continue
            for qual, callee, function, bound in members:
                for param, position in _defaulted(function, bound):
                    options[f"{qual}({param})"] = (callee, param, position)
    return options


@functools.lru_cache(maxsize=None)
def _calls() -> dict[str, tuple[frozenset[str], int, bool]]:
    """Per callee name: keywords passed, most positionals, any ``*``/``**``."""
    keywords: dict[str, set[str]] = {}
    positionals: dict[str, int] = {}
    starred: dict[str, bool] = {}
    for pattern in ("src/**/*.py", "perfbench/*.py", "examples/*.py"):
        for _, tree in _parse(pattern):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                else:
                    continue
                keywords.setdefault(name, set()).update(
                    kw.arg for kw in node.keywords if kw.arg is not None
                )
                plain = [a for a in node.args if not isinstance(a, ast.Starred)]
                positionals[name] = max(positionals.get(name, 0), len(plain))
                starred[name] = starred.get(name, False) or (
                    len(plain) < len(node.args)
                    or any(kw.arg is None for kw in node.keywords)
                )
    return {
        name: (frozenset(keywords[name]), positionals[name], starred[name])
        for name in keywords
    }


def _test_only_options() -> set[str]:
    calls = _calls()
    test_only = set()
    for qual, (callee, param, position) in _src_options().items():
        passed, most_positional, starred = calls.get(callee, (frozenset(), 0, False))
        if not (
            starred
            or param in passed
            or (position is not None and position < most_positional)
        ):
            test_only.add(qual)
    return test_only


def test_every_option_has_a_caller_outside_tests():
    unexpected = sorted(_test_only_options() - set(OPTION_ALLOWLIST))
    assert not unexpected, (
        "src/ options no call outside tests/ sets; make each default a "
        "constant (deleting the code only its other values reach) or "
        f"allowlist it with a reason: {unexpected}"
    )


def test_option_allowlist_names_exist_and_stay_test_only():
    gone = sorted(set(OPTION_ALLOWLIST) - set(_src_options()))
    assert not gone, f"allowlisted options no longer in src/: {gone}"
    set_outside_tests = sorted(set(OPTION_ALLOWLIST) - _test_only_options())
    assert not set_outside_tests, (
        "allowlisted options now set outside tests/; drop them from "
        f"OPTION_ALLOWLIST: {set_outside_tests}"
    )
    assert all(reason.strip() for reason in OPTION_ALLOWLIST.values())


# ------------------------------------------------------------------- fields
#: Dataclass fields only tests pass that stay in ``src/``, as
#: ``"<qualified class>.<field>"``.
FIELD_ALLOWLIST: dict[str, str] = {
    "repro.link.session.LinkStatistics.results": (
        "state: `add` appends every packet's outcome to a statistics object "
        "that starts empty"
    ),
    "repro.net.metrics.NetworkMetrics.records": (
        "state: the simulator appends the fate of every payload as its run "
        "settles it"
    ),
    "repro.net.packet.NetPacket.path": (
        "state: `forwarded` extends each relayed copy's hop record; a new "
        "packet has taken no hop"
    ),
    "repro.validation.report.ValidationReport.figures": (
        "state: `add` appends each figure's report as `validate` runs"
    ),
}


def _dataclass(node: ast.ClassDef) -> tuple[bool, bool] | None:
    """``(frozen, kw_only)`` of a ``@dataclass`` class, else ``None``."""
    for decorator in node.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call else decorator
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if name != "dataclass":
            continue
        flags = {
            kw.arg: kw.value.value
            for kw in (call.keywords if call else ())
            if isinstance(kw.value, ast.Constant)
        }
        return bool(flags.get("frozen")), bool(flags.get("kw_only"))
    return None


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.startswith(("ClassVar", "typing.ClassVar"))
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return getattr(target, "id", getattr(target, "attr", None)) == "ClassVar"


def _src_fields() -> dict[str, tuple[str, str, int | None, bool]]:
    """``{"<qualified class>.<field>": (class, field, call position, frozen)}``
    of every defaulted field a top-level ``src/`` dataclass's ``__init__``
    takes."""
    fields = {}
    for path, tree in _parse("src/**/*.py"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in tree.body:
            flags = _dataclass(node) if isinstance(node, ast.ClassDef) else None
            if flags is None:
                continue
            frozen, kw_only = flags
            position = 0
            for member in node.body:
                if not (
                    isinstance(member, ast.AnnAssign)
                    and isinstance(member.target, ast.Name)
                    and not _is_classvar(member.annotation)
                ):
                    continue
                value = member.value
                defaulted = value is not None
                if isinstance(value, ast.Call) and getattr(
                    value.func, "id", getattr(value.func, "attr", None)
                ) == "field":
                    keywords = {kw.arg: kw.value for kw in value.keywords}
                    init = keywords.get("init")
                    if isinstance(init, ast.Constant) and init.value is False:
                        continue
                    defaulted = "default" in keywords or "default_factory" in keywords
                if defaulted:
                    fields[f"{module}.{node.name}.{member.target.id}"] = (
                        node.name, member.target.id,
                        None if kw_only else position, frozen,
                    )
                position += 1
    return fields


def _call_shape(call: ast.Call) -> tuple[set[str], int, bool]:
    plain = [a for a in call.args if not isinstance(a, ast.Starred)]
    starred = len(plain) < len(call.args) or any(kw.arg is None for kw in call.keywords)
    return {kw.arg for kw in call.keywords if kw.arg is not None}, len(plain), starred


@functools.lru_cache(maxsize=None)
def _field_uses() -> tuple[dict[str, tuple[frozenset[str], int, bool]], frozenset, frozenset[str]]:
    """``(cls(...) calls per class, attributes src/ stores, replace keywords)``.

    A store to ``self.name`` counts for the top-level class it sits in
    (``(class, name)``); any other attribute store counts for every class
    (``(None, name)``).
    """
    cls_calls: dict[str, tuple[frozenset[str], int, bool]] = {}
    stored: set[tuple[str | None, str]] = set()
    replaced: set[str] = set()
    for pattern in ("src/**/*.py", "perfbench/*.py", "examples/*.py"):
        for _, tree in _parse(pattern):
            for top in tree.body:
                owner = top.name if isinstance(top, ast.ClassDef) else None
                for node in ast.walk(top):
                    if isinstance(node, ast.Call):
                        func = node.func
                        name = getattr(func, "id", getattr(func, "attr", None))
                        if name == "replace":
                            replaced.update(_call_shape(node)[0])
                        elif owner and isinstance(func, ast.Name) and name == "cls":
                            keywords, positional, starred = _call_shape(node)
                            before = cls_calls.get(owner, (frozenset(), 0, False))
                            cls_calls[owner] = (
                                before[0] | keywords,
                                max(before[1], positional),
                                before[2] or starred,
                            )
                    elif (
                        pattern.startswith("src/")
                        and isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                    ):
                        is_self = isinstance(node.value, ast.Name) and node.value.id == "self"
                        stored.add((owner if is_self else None, node.attr))
    return cls_calls, frozenset(stored), frozenset(replaced)


def _test_only_fields() -> set[str]:
    calls = _calls()
    cls_calls, stored, replaced = _field_uses()
    unused = (frozenset(), 0, False)
    test_only = set()
    for qual, (owner, name, position, frozen) in _src_fields().items():
        passed = name in replaced or any(
            starred or name in keywords or (position is not None and position < positional)
            for keywords, positional, starred in (
                calls.get(owner, unused), cls_calls.get(owner, unused)
            )
        )
        state = not frozen and ((owner, name) in stored or (None, name) in stored)
        if not (passed or state):
            test_only.add(qual)
    return test_only


def test_every_dataclass_field_has_a_caller_outside_tests():
    unexpected = sorted(_test_only_fields() - set(FIELD_ALLOWLIST))
    assert not unexpected, (
        "src/ dataclass fields no call outside tests/ passes; make each "
        "default a constant (deleting the code only its other values "
        "reach), declare a container the class fills field(init=False), or "
        f"allowlist it with a reason: {unexpected}"
    )


def test_field_allowlist_names_exist_and_stay_test_only():
    gone = sorted(set(FIELD_ALLOWLIST) - set(_src_fields()))
    assert not gone, f"allowlisted fields no longer in src/: {gone}"
    passed_outside_tests = sorted(set(FIELD_ALLOWLIST) - _test_only_fields())
    assert not passed_outside_tests, (
        "allowlisted fields now passed outside tests/; drop them from "
        f"FIELD_ALLOWLIST: {passed_outside_tests}"
    )
    assert all(reason.strip() for reason in FIELD_ALLOWLIST.values())
