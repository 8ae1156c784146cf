"""Plain-text experiment reports.

The benchmark harness regenerates every experiment of EXPERIMENTS.md by
printing an :class:`ExperimentReport`: a title, a set of notes (parameters and
paper-predicted values) and an aligned table of measured rows.  Keeping the
format trivial (monospace text, no plotting dependencies) makes the output
diff-able and usable directly in the markdown report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


def format_value(value: object, *, precision: int = 3) -> str:
    """Render one cell: floats rounded, booleans as yes/no, None as '-'."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}g}"
    return str(value)


def _render_cells(
    rows: Sequence[dict[str, object]],
    columns: Sequence[str] | None,
    precision: int,
) -> tuple[list[str], list[list[str]], list[int]]:
    """The shared rendering pipeline behind both table framers.

    Returns ``(cols, rendered, widths)``: the column order, every cell of
    every row already passed through :func:`format_value`, and the per-column
    display widths.  Keeping this in one place guarantees the plain-text and
    markdown renderings of the same rows can never disagree on content —
    only on framing.
    """
    cols = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[format_value(row.get(col), precision=precision) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(cols)
    ]
    return cols, rendered, widths


def format_table(
    rows: Sequence[dict[str, object]],
    columns: Sequence[str] | None = None,
    *,
    precision: int = 3,
) -> str:
    """Render rows as an aligned, pipe-separated text table.

    Args:
        rows: Records to render (all rows should share the chosen columns).
        columns: Column order; defaults to the keys of the first row.
        precision: Significant digits for floats.
    """
    if not rows:
        return "(no data)"
    cols, rendered, widths = _render_cells(rows, columns, precision)
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    separator = "-+-".join("-" * widths[i] for i in range(len(cols)))
    body = "\n".join(
        " | ".join(r[i].ljust(widths[i]) for i in range(len(cols))) for r in rendered
    )
    return f"{header}\n{separator}\n{body}"


def format_markdown_table(
    rows: Sequence[dict[str, object]],
    columns: Sequence[str] | None = None,
    *,
    precision: int = 3,
) -> str:
    """Render rows as a GitHub-flavoured markdown table.

    Shares the whole rendering pipeline (:func:`_render_cells`) with
    :func:`format_table` — only the framing differs.  Used by ``repro
    engines --markdown`` to regenerate the engine-support tables embedded in
    the README and docs (the docs-drift test compares them byte-for-byte).
    """
    if not rows:
        return "(no data)"
    cols, rendered, widths = _render_cells(rows, columns, precision)
    header = "| " + " | ".join(col.ljust(widths[i]) for i, col in enumerate(cols)) + " |"
    separator = "|" + "|".join("-" * (widths[i] + 2) for i in range(len(cols))) + "|"
    body = "\n".join(
        "| " + " | ".join(r[i].ljust(widths[i]) for i in range(len(cols))) + " |"
        for r in rendered
    )
    return f"{header}\n{separator}\n{body}"


@dataclass
class ExperimentReport:
    """A titled, annotated table for one experiment.

    Attributes:
        experiment_id: Short id (e.g. ``"E1"``) matching DESIGN.md / EXPERIMENTS.md.
        title: Human-readable experiment title.
        notes: Free-form annotation lines (parameters, analytic predictions).
        rows: Measured rows.
        columns: Column order for the table.
    """

    experiment_id: str
    title: str
    notes: list[str] = field(default_factory=list)
    rows: list[dict[str, object]] = field(default_factory=list)
    columns: list[str] | None = None

    def add_note(self, note: str) -> None:
        """Append an annotation line."""
        self.notes.append(note)

    def add_row(self, row: dict[str, object]) -> None:
        """Append a measured row."""
        self.rows.append(row)

    def extend(self, rows: Iterable[dict[str, object]]) -> None:
        """Append several measured rows."""
        self.rows.extend(rows)

    def render(self) -> str:
        """Render the full report as text."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.extend(f"   {note}" for note in self.notes)
        lines.append("")
        lines.append(format_table(self.rows, self.columns))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
