"""Spans around subtrop's public stage functions, recorded from outside the package.

A :class:`Tracer` wraps each stage function listed in ``STAGES`` and, while
installed, puts the wrapper on every module attribute of the ``subtrop``
package that refers to the original.  The CLI's own control flow therefore
produces the call tree: ``main`` calls ``decide_system``, which calls
``build_cnf`` and ``solve_cnf``, and so on.  Spans live in memory, one list
per CLI call, and travel back to the driver, which writes them out when the
run ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# (layer, defining module, qualified name).  Layers are subtrop's modules.
STAGES = (
    ("parser", "subtrop.parser", "parse_system"),
    ("core", "subtrop.core", "row_supports"),
    ("core", "subtrop.core", "zero_sign_rows"),
    ("condition", "subtrop.condition", "build_cnf"),
    ("condition", "subtrop.condition", "build_dnf_single"),
    ("condition", "subtrop.condition", "LinearCondition.to_debug_text"),
    ("lra", "subtrop.lra", "solve_cnf"),
    ("lra", "subtrop.lra", "solve_conjunction"),
    ("lra", "subtrop.lra", "scale_to_integer"),
    ("witness", "subtrop.witness", "symbolic_t"),
    ("witness", "subtrop.witness", "evaluate_t"),
    ("witness", "subtrop.witness", "instantiate"),
    ("witness", "subtrop.witness", "verify_witness"),
    ("oracle", "subtrop.oracle", "exhaustive_decide"),
    ("cli", "subtrop.cli", "decide_system"),
    ("cli", "subtrop.cli", "main"),
)
LAYERS = ("parser", "core", "condition", "lra", "witness", "oracle", "cli")


def _subtrop_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "subtrop" and m]


def _locate(module_name: str, qualname: str):
    """The function object, or None when no loaded subtrop module defines it."""
    owner_name, _, attr = qualname.rpartition(".")
    candidates = [sys.modules.get(module_name)] + _subtrop_modules()
    for module in candidates:
        owner = module
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if callable(fn):
            return owner, attr, fn
    return None


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Wrappers for the stage functions plus the spans of the current call."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.captured: list[tuple[str, tuple, object]] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for layer, module_name, qualname in STAGES:
            found = _locate(module_name, qualname)
            if found is None:
                continue
            owner, attr, fn = found
            wrapper = self._wrap(f"{layer}.{attr}", fn)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn, wrapper))
                continue
            for module in _subtrop_modules():
                if vars(module).get(attr) is fn:
                    self._patches.append((module, attr, fn, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack, captured = self.spans, self.stack, self.captured

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            captured.append((name, args, result))
            return result

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def begin(self):
        self.spans.clear()
        self.stack.clear()
        self.captured.clear()

    def end(self) -> dict:
        """Spans of the call, plus counts taken from the stage results after timing stopped."""
        stats = {"parsed_bytes": 0, "sign_entries": 0, "nonzero_signs": 0, "literals": 0}
        point_bits = 0
        for name, args, result in self.captured:
            if name == "parser.parse_system":
                stats["parsed_bytes"] += len(args[0].encode())
                stats["sign_entries"] += result.u * result.v
                stats["nonzero_signs"] += sum(1 for row in result.s.entries for x in row if x)
            elif name == "condition.build_cnf":
                stats["literals"] += sum(len(clause.literals) for clause in result.clauses)
            elif name == "witness.verify_witness":
                point_bits = max([point_bits] + [_bits(x) for x in result.point])
        stats["point_bits"] = point_bits
        spans = [list(span) for span in self.spans]
        self.begin()
        return {"spans": spans, "stats": stats}
