"""Codegen execution backend: checked CFGs lowered to Python source.

The fast execution engine; the reference interpreter stays the
oracle.  Each procedure is emitted once as the text of a plain Python
function — loops as native ``while``/``for`` constructs, scalars as
locals, constants folded, coercions inlined, counter bumps as direct
``slots[i] += 1.0`` adds — then compiled and cached per ``(counter
plan, machine model)`` variant.  Results are bit-identical to the
reference interpreter.
"""

from repro.codegen.backend import CodegenBackend, codegen_backend_for
from repro.codegen.emit import MUTATIONS, EmitMeta, emit_module
from repro.codegen.shape import LoweringError, UnsupportedHooksError

__all__ = [
    "CodegenBackend",
    "codegen_backend_for",
    "emit_module",
    "EmitMeta",
    "MUTATIONS",
    "LoweringError",
    "UnsupportedHooksError",
]
