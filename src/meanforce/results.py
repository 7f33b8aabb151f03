"""Result records shared across solvers, and the CSV sweep table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = ["SpinExpectation", "SweepTable", "format_sig"]


@dataclass(frozen=True)
class SpinExpectation:
    """Normalized spin components with diagnostic metadata.

    sz, sx are <Sz>/S0 and <Sx>/S0; sy is kept only as a diagnostic (it is
    zero for every method in this package).  sz_err/sx_err are statistical
    or quadrature error estimates where available, otherwise 0.  n_rc_used
    is the oscillator cutoff of a reaction-coordinate solve, otherwise 0.
    """

    sz: float
    sx: float
    sy: float = 0.0
    sz_err: float = 0.0
    sx_err: float = 0.0
    method: str = ""
    converged: bool = True
    n_rc_used: int = 0


def format_sig(x, digits: int = 12) -> str:
    """Locale-independent rendering with fixed significant digits."""
    if isinstance(x, bool):
        return str(x)
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

    def to_csv(self, path=None) -> Optional[str]:
        lines = [f"# {key} = {value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format_sig(v) for v in row))
        text = "\n".join(lines) + "\n"
        if path is None:
            return text
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return None
