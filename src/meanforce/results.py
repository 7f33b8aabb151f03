"""Result records shared across solvers, and the CSV sweep table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["SpinExpectation", "SweepTable", "format_sig"]


@dataclass(frozen=True)
class SpinExpectation:
    """Normalized spin components with diagnostic metadata.

    sz, sx are <Sz>/S0 and <Sx>/S0 (<Sy> is zero for every method in this
    package, so it is not carried).  sz_err/sx_err are statistical
    or quadrature error estimates where available, otherwise 0.  n_rc_used
    is the oscillator cutoff of a reaction-coordinate solve, otherwise 0.
    A result's name is the method table's key (solvers.SOLVERS).
    """

    sz: float
    sx: float
    sz_err: float = 0.0
    sx_err: float = 0.0
    n_rc_used: int = 0


def format_sig(x, digits: int = 12) -> str:
    """Locale-independent rendering with fixed significant digits."""
    if isinstance(x, float):
        return f"{x:.{digits}g}"
    return str(x)


@dataclass
class SweepTable:
    """Ordered (parameters -> observables) records with provenance metadata.

    Serialized as CSV with '#'-prefixed metadata lines, a header row, '.'
    decimal separator, 12 significant digits, and '\\n' line endings.
    """

    columns: Sequence[str]
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(tuple(values))

    def to_csv(self) -> str:
        lines = [f"# {key} = {value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format_sig(v) for v in row))
        return "\n".join(lines) + "\n"
