"""Implementations of the minifort intrinsic functions."""

from __future__ import annotations

import math
import random

from repro.errors import InterpreterError


def _fortran_mod(a, b):
    """Fortran MOD: result has the sign of the dividend."""
    if b == 0:
        raise InterpreterError("MOD with zero divisor")
    if isinstance(a, int) and isinstance(b, int):
        return int(math.fmod(a, b))
    return math.fmod(a, b)


def _sign(a, b):
    """SIGN(a, b): |a| with the sign of b (b == 0 counts as positive)."""
    magnitude = abs(a)
    return -magnitude if b < 0 else magnitude


class IntrinsicRuntime:
    """Evaluates intrinsic calls; owns the run's PRNG and input vector.

    ``IRAND``/``RAND`` draw from a seeded generator so that runs are
    reproducible; ``INPUT(i)`` reads the i-th element (1-based) of the
    run's input vector, standing in for READ statements.  The
    generator is seeded on first use, before the first draw: most
    programs never draw, and seeding costs more than a short run.
    """

    def __init__(self, seed: int = 0, inputs: tuple[float, ...] = ()):
        self.seed = seed
        self._rng: random.Random | None = None
        self.inputs = tuple(inputs)

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(self.seed)
        return self._rng

    def call(self, name: str, args: list, line: int | None = None):
        if name == "MOD":
            return _fortran_mod(args[0], args[1])
        if name == "MIN":
            return min(args)
        if name == "MAX":
            return max(args)
        if name == "ABS":
            return abs(args[0])
        if name == "SIGN":
            return _sign(args[0], args[1])
        if name == "SQRT":
            if args[0] < 0:
                raise InterpreterError("SQRT of negative value", line)
            return math.sqrt(args[0])
        if name == "EXP":
            return math.exp(args[0])
        if name == "LOG":
            if args[0] <= 0:
                raise InterpreterError("LOG of non-positive value", line)
            return math.log(args[0])
        if name == "SIN":
            return math.sin(args[0])
        if name == "COS":
            return math.cos(args[0])
        if name == "ATAN":
            return math.atan(args[0])
        if name == "INT":
            return int(args[0])
        if name == "NINT":
            return int(round(args[0]))
        if name in ("REAL", "FLOAT"):
            return float(args[0])
        if name == "IRAND":
            lo, hi = int(args[0]), int(args[1])
            if lo > hi:
                raise InterpreterError(f"IRAND({lo}, {hi}): empty range", line)
            return self.rng.randint(lo, hi)
        if name == "RAND":
            return self.rng.random()
        if name == "INPUT":
            index = int(args[0])
            if not 1 <= index <= len(self.inputs):
                raise InterpreterError(
                    f"INPUT({index}): run has {len(self.inputs)} inputs", line
                )
            return self.inputs[index - 1]
        raise InterpreterError(f"unknown intrinsic {name}", line)
