"""Static SVG rendering for dendrograms and boxplot panels.

The SVG is assembled by hand with fixed coordinate formatting so identical
inputs always produce byte-identical files (no timestamps, no library
version strings).
"""

from __future__ import annotations

from .cluster import Dendrogram
from .compare import SuiteComparison

_FONT = "font-family=\"monospace\" font-size=\"11\""
# (row height, plot width) of each chart, in px: one row per leaf or per metric
_DENDROGRAM_ROW, _DENDROGRAM_WIDTH = 18.0, 420.0
_BOXPLOT_ROW, _BOXPLOT_WIDTH = 42.0, 380.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _line(x1: float, y1: float, x2: float, y2: float, color: str = "#333333") -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="1"/>'
    )


def _text(x: float, y: float, content: str, anchor: str = "start") -> str:
    # what xml.sax.saxutils.escape does; importing that module would load urllib into every process
    escaped = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} text-anchor="{anchor}">{escaped}</text>'


def _rect(x: float, y: float, w: float, h: float, fill: str) -> str:
    return (
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'fill="{fill}" stroke="#333333" stroke-width="1"/>'
    )


def dendrogram_svg(dendrogram: Dendrogram) -> str:
    """Horizontal dendrogram: labeled leaves on the left, merge height on x."""
    n = len(dendrogram.leaves)
    label_width = 10.0 + 7.0 * max(len(label) for label in dendrogram.leaves)
    margin = 12.0
    height = 2 * margin + n * _DENDROGRAM_ROW
    width = label_width + _DENDROGRAM_WIDTH + margin

    # depth-first leaf order so subtrees render contiguously
    order: list[int] = []

    def visit(node: int) -> None:
        if node < n:
            order.append(node)
        else:
            merge = dendrogram.merges[node - n]
            visit(merge.left)
            visit(merge.right)

    visit(2 * n - 2)
    leaf_y = {leaf: margin + (pos + 0.5) * _DENDROGRAM_ROW for pos, leaf in enumerate(order)}

    max_height = dendrogram.root_height or 1.0
    scale = _DENDROGRAM_WIDTH / max_height

    def node_x(height_value: float) -> float:
        return label_width + height_value * scale

    body = []
    for leaf in order:
        body.append(_text(4.0, leaf_y[leaf] + 4.0, dendrogram.leaves[leaf]))

    position: dict[int, tuple[float, float]] = {
        leaf: (label_width, leaf_y[leaf]) for leaf in range(n)
    }
    for t, merge in enumerate(dendrogram.merges):
        lx, ly = position[merge.left]
        rx, ry = position[merge.right]
        mx = node_x(merge.height)
        body.append(_line(lx, ly, mx, ly))
        body.append(_line(rx, ry, mx, ry))
        body.append(_line(mx, ly, mx, ry))
        position[n + t] = (mx, (ly + ry) / 2.0)

    axis_y = height - margin / 2.0
    body.append(_line(label_width, axis_y, label_width + _DENDROGRAM_WIDTH, axis_y, "#888888"))
    body.append(_text(label_width, axis_y - 3.0, "0"))
    body.append(_text(label_width + _DENDROGRAM_WIDTH, axis_y - 3.0, f"{max_height:.3g}", anchor="end"))
    return _svg(width, height, body)


def boxplot_svg(cmp: SuiteComparison) -> str:
    """One row per metric with the two suites' boxes on a shared linear scale."""
    label_width = 150.0
    margin = 14.0
    legend_height = 20.0
    rows = cmp.metrics
    height = 2 * margin + legend_height + len(rows) * _BOXPLOT_ROW
    width = label_width + _BOXPLOT_WIDTH + 90.0

    colors = {"a": "#7fa8d9", "b": "#e3a869"}
    body = [
        _rect(label_width, margin, 10.0, 10.0, colors["a"]),
        _text(label_width + 16.0, margin + 9.0, cmp.suite_a),
        _rect(label_width + 140.0, margin, 10.0, 10.0, colors["b"]),
        _text(label_width + 156.0, margin + 9.0, cmp.suite_b),
    ]

    for i, m in enumerate(rows):
        top = margin + legend_height + i * _BOXPLOT_ROW
        low = min(m.box_a.minimum, m.box_b.minimum)
        high = max(m.box_a.maximum, m.box_b.maximum)
        span = (high - low) or 1.0

        def x(value: float) -> float:
            return label_width + (value - low) / span * _BOXPLOT_WIDTH

        label_y = top + _BOXPLOT_ROW / 2.0 + 4.0
        body.append(_text(4.0, label_y, m.metric))
        for which, box in (("a", m.box_a), ("b", m.box_b)):
            mid = top + (_BOXPLOT_ROW * (0.30 if which == "a" else 0.70))
            box_h = _BOXPLOT_ROW * 0.26
            body.append(_line(x(box.minimum), mid, x(box.maximum), mid))
            body.append(_rect(x(box.q1), mid - box_h / 2.0, max(x(box.q3) - x(box.q1), 0.5), box_h, colors[which]))
            body.append(_line(x(box.median), mid - box_h / 2.0, x(box.median), mid + box_h / 2.0))
        body.append(_text(label_width + _BOXPLOT_WIDTH + 6.0, label_y, f"[{low:.3g}, {high:.3g}]"))

    return _svg(width, height, body)
