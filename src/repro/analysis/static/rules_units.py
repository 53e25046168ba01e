"""R1 — unit consistency.

Two checks, both rooted in the paper's physics:

1. **Dimension mismatches.**  Dimensions are inferred from the
   machine-readable tables in :mod:`repro.units`
   (:data:`~repro.units.DIMENSIONS` for constants and constructor
   functions, :data:`~repro.units.ATTRIBUTE_DIMENSIONS` for well-known
   attribute names such as ``.conductivity`` or
   ``.ambient_conductance``) and propagated through local assignments
   and arithmetic.  Adding, subtracting, or comparing two expressions
   whose inferred dimensions differ — Watts to convection coefficients,
   Kelvin to Celsius offsets, the classic h(x)-correlation mix-ups — is
   flagged.  Inference is conservative: an expression with no known
   dimension never triggers a finding.

2. **Magic material constants.**  Float literals that exactly match a
   *distinctive* property value from :mod:`repro.materials` (e.g.
   silicon's 751.1 J/(kg·K)) are flagged outside ``materials.py``:
   duplicating the number bypasses the single source of truth, so a
   recalibration there silently diverges from the copy.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from .core import Finding, Rule, SourceFile, dotted_name, iter_functions, register
from .dimensions import Dimension, parse_dimension


def _load_symbol_dimensions() -> Tuple[Dict[str, Dimension], Dict[str, Dimension]]:
    """Parse the units.py tables into Dimension objects."""
    from ... import units

    symbols = {
        name: parse_dimension(text) for name, text in units.DIMENSIONS.items()
    }
    attributes = {
        name: parse_dimension(text)
        for name, text in units.ATTRIBUTE_DIMENSIONS.items()
    }
    return symbols, attributes


def material_constants() -> Dict[float, str]:
    """Distinctive material property values -> canonical symbol path.

    A value is *distinctive* when its decimal mantissa carries at least
    three significant digits (751.1 or 2330.0 qualify; 100.0 or 5.0 are
    too generic to attribute to a material).
    """
    from ... import materials

    table: Dict[float, str] = {}
    registries = [
        ("repro.materials.MATERIALS", materials.MATERIALS),
        ("repro.materials.FLUIDS", materials.FLUIDS),
    ]
    for _registry_name, registry in registries:
        for key, record in sorted(registry.items()):
            symbol = record.name.upper()
            for field in (
                "conductivity",
                "density",
                "specific_heat",
                "kinematic_viscosity",
            ):
                value = getattr(record, field, None)
                if value is None:
                    continue
                if _significant_digits(value) >= 3 and value not in table:
                    table[value] = f"repro.materials.{symbol}.{field}"
    return table


def _significant_digits(value: float) -> int:
    mantissa = f"{value:.10e}".split("e")[0].rstrip("0").replace(".", "")
    mantissa = mantissa.lstrip("-0")
    return len(mantissa)


class _DimensionInferer:
    """Best-effort dimension inference inside one function body."""

    def __init__(
        self,
        symbols: Dict[str, Dimension],
        attributes: Dict[str, Dimension],
    ) -> None:
        self.symbols = symbols
        self.attributes = attributes
        self.env: Dict[str, Dimension] = {}

    def infer(self, node: ast.AST) -> Optional[Dimension]:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return self.symbols.get(node.id)
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                tail = dotted.split(".")[-1]
                if tail in self.symbols and dotted.split(".")[-2:-1] == ["units"]:
                    return self.symbols[tail]
            if node.attr in self.symbols:
                # e.g. units.ZERO_CELSIUS_IN_KELVIN accessed via any alias
                return self.symbols[node.attr]
            return self.attributes.get(node.attr)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in self.symbols:
                return self.symbols[name]
            if name in ("abs", "float", "min", "max") and node.args:
                return self.infer(node.args[0])
            return None
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.UAdd, ast.USub)
        ):
            return self.infer(node.operand)
        if isinstance(node, ast.BinOp):
            left = self.infer(node.left)
            right = self.infer(node.right)
            if isinstance(node.op, ast.Mult):
                if left is not None and right is not None:
                    return left * right
                return None
            if isinstance(node.op, ast.Div):
                if left is not None and right is not None:
                    return left / right
                return None
            if isinstance(node.op, (ast.Add, ast.Sub)):
                if left is not None and right is not None and left == right:
                    return left
                return None
            if isinstance(node.op, ast.Pow):
                if left is not None and isinstance(
                    node.right, ast.Constant
                ) and isinstance(node.right.value, int):
                    return left ** node.right.value
                return None
        return None

    def bind(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            dim = self.infer(value)
            if dim is not None:
                self.env[target.id] = dim
            else:
                # A rebind to an uninferable value clears stale knowledge.
                self.env.pop(target.id, None)


@register
class UnitConsistencyRule(Rule):
    name = "unit-consistency"
    severity = "error"
    description = (
        "additions/comparisons of dimensionally incompatible quantities, "
        "and magic numbers duplicating materials.py property values"
    )

    def __init__(self) -> None:
        self.symbols, self.attributes = _load_symbol_dimensions()
        self.material_constants = material_constants()

    def check(self, source: SourceFile) -> Iterator[Finding]:
        yield from self._check_dimensions(source)
        yield from self._check_material_constants(source)

    # -- dimension mismatch ------------------------------------------------

    def _check_dimensions(self, source: SourceFile) -> Iterator[Finding]:
        for info in iter_functions(source.tree):
            inferer = _DimensionInferer(self.symbols, self.attributes)
            yield from self._walk_body(source, info.node.body, inferer)

    def _walk_body(
        self,
        source: SourceFile,
        body: List[ast.stmt],
        inferer: _DimensionInferer,
    ) -> Iterator[Finding]:
        for stmt in body:
            # Nested defs get their own inferer via iter_functions.
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub)
                ):
                    yield from self._check_additive(source, node, inferer)
                elif isinstance(node, ast.Compare):
                    yield from self._check_compare(source, node, inferer)
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    inferer.bind(target, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                inferer.bind(stmt.target, stmt.value)

    def _check_additive(
        self, source: SourceFile, node: ast.BinOp, inferer: _DimensionInferer
    ) -> Iterator[Finding]:
        left = inferer.infer(node.left)
        right = inferer.infer(node.right)
        if left is not None and right is not None and left != right:
            op = "+" if isinstance(node.op, ast.Add) else "-"
            yield self.finding(
                source, node,
                f"dimension mismatch: [{left}] {op} [{right}]",
                hint="convert both operands to the same unit before "
                     "combining (see repro.units constructors)",
            )

    def _check_compare(
        self, source: SourceFile, node: ast.Compare, inferer: _DimensionInferer
    ) -> Iterator[Finding]:
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(
                op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
            ):
                continue
            left = inferer.infer(operands[index])
            right = inferer.infer(operands[index + 1])
            if left is not None and right is not None and left != right:
                yield self.finding(
                    source, node,
                    f"comparing incompatible dimensions [{left}] vs [{right}]",
                    hint="convert both sides to the same unit before comparing",
                )

    # -- magic material constants -----------------------------------------

    def _check_material_constants(self, source: SourceFile) -> Iterator[Finding]:
        if source.path.replace("\\", "/").endswith(
            ("repro/materials.py", "repro/units.py")
        ):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if not isinstance(value, float):
                continue
            symbol = self.material_constants.get(value)
            if symbol is not None:
                yield self.finding(
                    source, node,
                    f"magic number {value!r} duplicates {symbol}",
                    hint=f"reference {symbol} instead of re-typing the "
                         f"property value",
                    severity="warning",
                )
