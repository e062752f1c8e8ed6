"""Span self-time arithmetic and the per-layer table of the traced run.

A span is a dict with `id`, `parent` (-1 for a top-level span), `layer`,
`start_ns` and `end_ns`. A span's self time is its duration minus the part
of its interval that its children cover. Self times of a span tree sum to
the root's duration, so the per-layer rows plus `uncovered` (spans with no
layer, i.e. the CLI's own composition, and the process time outside every
span) sum to the root span.
"""


def _covered(parent, children):
    """Length of the union of the children's intervals, clipped to parent."""
    lo, hi = parent["start_ns"], parent["end_ns"]
    intervals = sorted((max(lo, c["start_ns"]), min(hi, c["end_ns"]))
                       for c in children)
    total = 0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: self time in ns}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    return {s["id"]: (s["end_ns"] - s["start_ns"])
            - _covered(s, children.get(s["id"], ())) for s in spans}


def layer_table(spans, root_ns):
    """Per-layer self time (seconds) of a traced process.

    `spans` come from one process; their top-level span(s) lie inside the
    process lifetime `root_ns`, measured by the parent from spawn to exit.
    Returns (rows, uncovered_s, root_s) with sum(rows) + uncovered = root.
    """
    selfs = self_times(spans)
    top_ns = sum(s["end_ns"] - s["start_ns"] for s in spans
                 if s["parent"] == -1)
    if top_ns > root_ns:
        raise ValueError(f"spans cover {top_ns} ns of a {root_ns} ns root")
    rows = {}
    uncovered_ns = root_ns - top_ns
    for s in spans:
        if s["layer"]:
            rows[s["layer"]] = rows.get(s["layer"], 0) + selfs[s["id"]]
        else:
            uncovered_ns += selfs[s["id"]]
    total = sum(rows.values()) + uncovered_ns
    if total != root_ns:
        raise ValueError(f"layer rows sum to {total} ns, root is {root_ns}")
    return ({k: v / 1e9 for k, v in rows.items()}, uncovered_ns / 1e9,
            root_ns / 1e9)


def format_table(title, rows, uncovered_s, root_s):
    lines = [title, f"  {'layer':<28}{'self s':>10}{'share':>8}"]
    for layer, sec in sorted(rows.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<28}{sec:>10.4f}{sec / root_s:>8.1%}")
    lines.append(f"  {'uncovered':<28}{uncovered_s:>10.4f}"
                 f"{uncovered_s / root_s:>8.1%}")
    lines.append(f"  {'root (process)':<28}{root_s:>10.4f}{1:>8.1%}")
    return "\n".join(lines)
