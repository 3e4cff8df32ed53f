"""Source lint: only the event kernel moves the clock.

``Simulator.now`` is a plain attribute, read on every timeout, grant and
page operation. Nothing but the dispatch loops in ``src/repro/sim/core.py``
may assign it: a model that set it would move time without an event, and
every schedule after it would silently change.

The check walks the syntax tree of every Python file in ``src/``,
``tests/``, ``examples/`` and ``benchmarks/``. An assignment (plain,
augmented, annotated or inside a tuple target) to ``<expr>.now`` fails it,
except ``self.now`` in a class that is not a :class:`Simulator` (the tests'
reference kernels and state machines keep their own clocks).
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "examples", "benchmarks")
KERNEL = REPO / "src" / "repro" / "sim" / "core.py"


def _targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        found = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        found = [node.target]
    else:
        return []
    flat: list[ast.expr] = []
    while found:
        target = found.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            found.extend(target.elts)
        else:
            flat.append(target)
    return flat


def _is_simulator(cls: ast.ClassDef | None) -> bool:
    if cls is None:
        return False
    names = [cls.name] + [ast.unparse(base) for base in cls.bases]
    return any(name.split(".")[-1] == "Simulator" for name in names)


def clock_writes(source: str) -> list[int]:
    """Line numbers of the ``.now`` assignments the lint rejects."""
    lines: list[int] = []

    def visit(node: ast.AST, cls: ast.ClassDef | None) -> None:
        for target in _targets(node):
            if not (isinstance(target, ast.Attribute) and target.attr == "now"):
                continue
            own = isinstance(target.value, ast.Name) and target.value.id == "self"
            if not own or _is_simulator(cls):
                lines.append(target.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, node if isinstance(node, ast.ClassDef) else cls)

    visit(ast.parse(source), None)
    return lines


def test_only_the_kernel_assigns_simulator_now():
    offenders = [
        f"{path.relative_to(REPO)}:{line}"
        for tree in TREES
        for path in sorted((REPO / tree).rglob("*.py"))
        if path.resolve() != KERNEL
        for line in clock_writes(path.read_text())
    ]
    assert not offenders, "simulator clock assigned outside the kernel:\n  " + "\n  ".join(
        offenders
    )


def test_the_lint_sees_every_form_of_assignment():
    source = (
        "sim.now = 1.0\n"
        "node.sim.now += 2.0\n"
        "a, fleet.sim.now = 0, 3.0\n"
        "class Simulator:\n"
        "    def tick(self):\n"
        "        self.now: float = 4.0\n"
        "class Clock:\n"
        "    def tick(self):\n"
        "        self.now = 5.0\n"
        "start = sim.now\n"
    )
    assert clock_writes(source) == [1, 2, 3, 6]
    assert clock_writes(KERNEL.read_text())  # the kernel itself does assign it
