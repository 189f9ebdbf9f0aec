"""Static HTML summary with inline SVG charts.

Charts are emitted as hand-assembled SVG strings rather than through a
plotting library so that the report is byte-identical across runs (no
renderer metadata, no font rasterization)."""

from __future__ import annotations

import heapq
import html
from collections import Counter
from typing import Sequence

from . import __version__
from .stance import STANCES

_W, _H = 720, 240
_PAD = 40
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728")


def _fmt(x: float) -> str:
    return format(x, ".4g")


def _top(counts: Counter, k: int) -> list[tuple[str, int]]:
    """The k most frequent (key, count) pairs; ties by ascending key."""
    return heapq.nsmallest(k, counts.items(), key=lambda kv: (-kv[1], kv[0]))


# the plot area: x from _X0 to _X1, values from _Y0 (bottom) up to _Y1
_X0, _X1, _Y0, _Y1 = _PAD, _W - 10, _H - 24, 20


def _frame(title: str, x_labels: Sequence[str]) -> tuple[list[str], str]:
    """A chart's opening (the <svg> tag, the title and the x axis) and its
    first and last x labels ("" when there are none)."""
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
            f'height="{_H}" role="img">',
            f'<text x="{_W // 2}" y="14" text-anchor="middle" '
            f'font-size="12">{html.escape(title)}</text>',
            f'<line x1="{_X0}" y1="{_Y0}" x2="{_X1}" y2="{_Y0}" '
            'stroke="#999"/>']
    if not x_labels:
        return head, ""
    return head, (f'<text x="{_X0}" y="{_H - 8}" font-size="9">'
                  f'{html.escape(x_labels[0])}</text>'
                  f'<text x="{_X1}" y="{_H - 8}" font-size="9" '
                  f'text-anchor="end">{html.escape(x_labels[-1])}</text>')


def svg_line_chart(series: Sequence[tuple[str, list[float | None]]],
                   x_labels: Sequence[str], title: str) -> str:
    """Multi-line chart of values in [0, 1] (the PI's range); None values
    break the line (gap days)."""
    n = len(x_labels)
    parts, ends = _frame(title, x_labels)
    parts.append(f'<line x1="{_X0}" y1="{_Y0}" x2="{_X0}" y2="{_Y1}" '
                 'stroke="#999"/>')

    def px(i: int) -> float:
        return _X0 + (_X1 - _X0) * (i / max(1, n - 1))

    def py(v: float) -> float:
        return _Y0 - (_Y0 - _Y1) * v

    for tick in (0.0, 0.5, 1.0):
        parts.append(f'<text x="{_X0 - 4}" y="{py(tick):.1f}" font-size="9" '
                     f'text-anchor="end">{_fmt(tick)}</text>')
    parts.append(ends)
    for idx, (name, values) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        run: list[str] = []
        segments: list[list[str]] = []
        for i, v in enumerate(values):
            if v is None:
                if run:
                    segments.append(run)
                run = []
            else:
                run.append(f"{px(i):.1f},{py(v):.1f}")
        if run:
            segments.append(run)
        for seg in segments:
            if len(seg) == 1:
                x, y = seg[0].split(",")
                parts.append(f'<circle cx="{x}" cy="{y}" r="2" '
                             f'fill="{color}"/>')
            else:
                parts.append(f'<polyline points="{" ".join(seg)}" '
                             f'fill="none" stroke="{color}" '
                             'stroke-width="1.5"/>')
        parts.append(f'<rect x="{_X0 + 90 * idx}" y="{_Y1 - 14}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{_X0 + 90 * idx + 14}" y="{_Y1 - 5}" '
                     f'font-size="10">{html.escape(name)}</text>')
    parts.append("</svg>")
    return "".join(parts)


def svg_bar_chart(values: Sequence[int], x_labels: Sequence[str],
                  title: str) -> str:
    n = len(values)
    top = max(values) if values else 1
    parts, ends = _frame(title, x_labels)
    parts.append(f'<text x="{_X0 - 4}" y="{_Y1 + 4}" font-size="9" '
                 f'text-anchor="end">{top}</text>')
    width = max(1.0, (_X1 - _X0) / max(1, n) - 1)
    for i, v in enumerate(values):
        h = (_Y0 - _Y1) * (v / top) if top else 0
        parts.append(f'<rect x="{_X0 + i * (_X1 - _X0) / n:.1f}" '
                     f'y="{_Y0 - h:.1f}" width="{width:.1f}" '
                     f'height="{h:.1f}" fill="#1f77b4"/>')
    parts += [ends, "</svg>"]
    return "".join(parts)


def _table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(c))}</td>" for c in row)
        + "</tr>"
        for row in rows)
    return f'<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>'


def render_summary(runner) -> str:
    """Assemble summary.html from an (already computed) pipeline Runner."""
    from .pipeline import ABLATION_CATEGORIES, sweep_rows
    counts = runner.content  # first, so that a new runner filters once
    report, stats = runner.filtered[1], runner.stats
    shares = runner.shares
    dates = [row.date.isoformat() for row in stats]

    sections = []
    sections.append("<h2>Corpus</h2>")
    sections.append(_table(
        ["total input", "kept", "dropped (lang)", "dropped (window)",
         "dropped (no rule)", "malformed lines"],
        [[report.total, report.kept, report.dropped_lang,
          report.dropped_window, report.dropped_no_rule,
          len(runner.load_errors)]]))
    if stats:
        sections.append(svg_bar_chart([row.n_posts for row in stats], dates,
                                      "Posts per day"))

    sections.append("<h2>Stance shares</h2>")
    sections.append(_table(
        ["share of", *STANCES],
        [["tweets (%)"] + [shares.tweet_pct[k] for k in STANCES],
         ["users (%)"] + [shares.user_pct[k] for k in STANCES]]))

    pi_rows = runner.series
    if pi_rows:
        sections.append("<h2>Polarization</h2>")
        by_date = {d.isoformat(): (r.pi if r else None) for d, r in pi_rows}
        full = [by_date.get(d) for d in dates]
        without = {}  # date -> pi_without of the configured variant
        for row in runner.ablation_rows:
            if isinstance(row, tuple):  # a gap
                d, drop, w = row[0], row[1], None
            else:
                d, drop, w = row.date, row.drop_isolated, row.pi_without
            if drop == runner.config.drop_isolated:
                without[d.isoformat()] = w
        series = [("full", full)] + [
            (f"without {name}", [w[name] if (w := without.get(d)) else None
                                 for d in dates])
            for name in ABLATION_CATEGORIES]
        sections.append(svg_line_chart(series, dates,
                                       title="Daily polarization index"))

    sweep = runner.sweep.entries
    if sweep:
        sections.append("<h2>Threshold sweep</h2>")
        sections.append(_table(
            ["threshold", "pi full", "w/o Political", "w/o MediaJournalist",
             "w/o Influencers", "Left users", "Right users"],
            sweep_rows(sweep, _fmt)))

    ranking = runner.influencer_ranking
    if ranking.selected:
        sections.append("<h2>Top influencers</h2>")
        sections.append(_table(
            ["rank", "user", "marginal shield score"],
            [[i + 1, uid, _fmt(score)] for i, (uid, score) in enumerate(
                zip(ranking.selected[:20], ranking.shield_scores[:20]))]))

    partition = runner.communities
    if partition is not None:
        sections.append("<h2>Communities</h2>")
        sections.append(
            f"<p>{partition.n_communities} communities, modularity "
            f"Q = {_fmt(partition.modularity)}</p>")
        sections.append(_table(
            ["community", "size", *STANCES, "lean"],
            [[p.community_id, p.size, p.n_left, p.n_right, p.n_center,
              p.n_neutral, _fmt(p.lean)]
             for p in partition.per_community[:10]]))

    if stats:
        sections.append("<h2>Top content (full window)</h2>")
        for key, label in (("hashtags", "Hashtags"), ("words", "Words"),
                           ("phrases", "Phrases"),
                           ("mentioned_users", "Mentioned users"),
                           ("active_users", "Active users")):
            entries = _top(counts[key], runner.config.top_k)
            if entries:
                sections.append(f"<h3>{label}</h3>")
                sections.append(_table(["value", "count"], entries))

    body = "\n".join(sections)
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Discussion monitoring summary</title>
<style>
body {{ font-family: sans-serif; margin: 2em; color: #222; }}
table {{ border-collapse: collapse; margin: 0.5em 0 1.5em; }}
th, td {{ border: 1px solid #bbb; padding: 2px 8px; font-size: 13px; }}
th {{ background: #eee; }}
</style>
</head>
<body>
<h1>Discussion monitoring summary</h1>
<p>polmon {__version__}</p>
{body}
</body>
</html>
"""
