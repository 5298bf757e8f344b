"""Span tracer for one benchmark command, and the fold of spans into self time.

As a script it runs one command in place of ``python -m necklaces.cli``:

    python3 perfbench/tracer.py OUT ARG...       # necklaces.cli.main(ARGS)
    python3 perfbench/tracer.py OUT SCRIPT.py    # a demo script, by runpy

Before running it, it replaces the layer functions listed in TARGETS, in
every ``necklaces`` module that binds them, with wrappers that record a span
(name, start, end, parent) and work counts.  The library code itself is not
edited.  Spans and counts are kept in memory and written to OUT at exit: one
JSON line, then the span columns as raw arrays.
"""

from __future__ import annotations

import array
import json
import runpy
import sys
import time

ROOT_SPAN = "cli.command"

# --- work counters: called as counter(counts, result, args) after the span ---


def _bump(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _size(e) -> int:
    terms = getattr(e, "terms", None)
    return 1 if terms is None else len(terms)


def _count_letters(c, result, args):
    _bump(c, "words.canonical_rotation.letters", len(args[0]))


def _count_necklaces(c, result, args):
    _bump(c, "counting.enumerate_necklaces.necklaces", len(result))


def _count_projection(c, result, args):
    _bump(c, "elements.project_to_necklace.terms_in", len(args[0].terms))
    _bump(c, "elements.project_to_necklace.terms_out", len(result.terms))


def _count_double_bracket(c, result, args):
    _bump(c, "brackets.double_bracket.terms_out", len(result.terms))


def _count_necklace_bracket(c, result, args):
    _bump(c, "brackets.necklace_bracket.term_pairs", _size(args[1]) * _size(args[2]))
    _bump(c, "brackets.necklace_bracket.terms_out", len(result.terms))
    _bump(c, "brackets.necklace_bracket.zero_results", not result.terms)


def _count_add(c, result, args):
    if result is not NotImplemented:
        _bump(c, "elements.Combination.add.terms_touched", len(args[0].terms) + len(args[1].terms))


def _count_solve(c, result, args):
    a = args[0]
    _bump(c, "linalg.solve_unique.cells", len(a) * (len(a[0]) if a else 0))


def _count_poly_mul(c, result, args):
    if result is not NotImplemented:
        _bump(c, "multipoly.Polynomial.mul.term_pairs", _size(args[0]) * _size(args[1]))


def _count_format(c, result, args):
    _bump(c, "elements.format_element.terms", len(args[0].terms))


def _count_rank(c, result, args):
    rows = args[0]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    _bump(c, "linalg.rank.cells", nrows * ncols)
    _bump(c, "linalg.rank.nonzero", sum(1 for row in rows for v in row if v))
    _bump(c, "linalg.rank.full_rank", result == min(nrows, ncols))
    c["linalg.rank.max_rows"] = max(c.get("linalg.rank.max_rows", 0), nrows)


# (span name, module under necklaces, class or None, attributes, counter)
TARGETS = [
    ("words.canonical_rotation", "words", None, ("canonical_rotation",), _count_letters),
    ("counting.enumerate_necklaces", "counting", None, ("enumerate_necklaces",), _count_necklaces),
    ("elements.project_to_necklace", "elements", None, ("project_to_necklace",), _count_projection),
    ("elements.parse_element", "elements", None, ("parse_element",), None),
    ("elements.format_element", "elements", None, ("format_element",), _count_format),
    ("elements.Combination.add", "elements", "_Combination", ("__add__",), _count_add),
    ("brackets.double_bracket", "brackets", None, ("double_bracket",), _count_double_bracket),
    ("brackets.loday_bracket", "brackets", None, ("loday_bracket",), None),
    ("brackets.necklace_bracket", "brackets", None, ("necklace_bracket",), _count_necklace_bracket),
    ("brackets.kontsevich_bracket", "brackets", None, ("kontsevich_bracket",), None),
    ("brackets.verify_double_jacobi", "brackets", None, ("verify_double_jacobi",), None),
    ("brackets.center_element", "brackets", None, ("center_element",), None),
    ("linalg.rank", "linalg", None, ("rank",), _count_rank),
    ("linalg.solve_unique", "linalg", None, ("solve_unique",), _count_solve),
    ("sl2.decompose_bruteforce", "sl2", None, ("decompose_bruteforce",), None),
    ("multipoly.Polynomial.mul", "multipoly", "Polynomial", ("__mul__", "__rmul__"), _count_poly_mul),
    ("multipoly.PolyMatrix.mul", "multipoly", "PolyMatrix", ("__mul__",), None),
    ("traces.trace_of", "traces", None, ("trace_of",), None),
    ("traces.express_in_trace_generators", "traces", None, ("express_in_trace_generators",), None),
    ("poisson.PoissonPolyAlgebra.bracket", "poisson", "PoissonPolyAlgebra", ("bracket",), None),
    ("linear_rules.StructureConstants.init", "linear_rules", "StructureConstants", ("__init__",), None),
]


class Recorder:
    """Spans in start order, as parallel columns, plus named work counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.kind = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}

    def wrap(self, name, fn, counter=None):
        """`fn` with a span named `name` around each call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, self.clock

        def traced(*args, **kwargs):
            sid = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path, **meta):
        header = dict(meta, names=self.names, counts=self.counts, spans=len(self.kind))
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.kind, self.parent, self.start, self.end):
                column.tofile(fh)


def load(path):
    """(header, kind, parent, start, end) as written by Recorder.dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for code in "Hidd":
            column = array.array(code)
            column.fromfile(fh, header["spans"])
            columns.append(column)
    return (header, *columns)


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    Spans come in start order, so a parent precedes its children and the
    children of one parent arrive by start; `reach` is how far into the
    parent its children already cover, so overlapping children count once.
    """
    covered = [0.0] * len(start)
    reach = list(start)
    for i, p in enumerate(parent):
        if p >= 0:
            lo = max(start[i], reach[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
    return [e - s - c for s, e, c in zip(start, end, covered)]


def layer_totals(names, kind, parent, start, end) -> dict[str, list]:
    """{span name: [calls, self seconds]}."""
    totals = {name: [0, 0.0] for name in names}
    for k, own in zip(kind, self_times(parent, start, end)):
        entry = totals[names[k]]
        entry[0] += 1
        entry[1] += own
    return totals


def install(recorder: Recorder) -> list[str]:
    """Wrap every target in every loaded necklaces module that binds it.
    Returns the names of targets that no longer exist."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "necklaces"]
    missing = []
    for name, module, cls, attrs, counter in TARGETS:
        owner = sys.modules.get(f"necklaces.{module}")
        if owner is not None and cls is not None:
            owner = getattr(owner, cls, None)
        if owner is None or not all(hasattr(owner, a) for a in attrs):
            missing.append(name)
            continue
        wrapped = {}
        for attr in attrs:
            original = getattr(owner, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = recorder.wrap(name, original, counter)
            setattr(owner, attr, wrapped[id(original)])
            if cls is None:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped[id(original)])
    return missing


def main(argv):
    out_path, command = argv[0], argv[1:]
    started = time.perf_counter()
    import necklaces.cli

    import_s = time.perf_counter() - started
    recorder = Recorder()
    missing = install(recorder)

    def command_main():
        if not command[0].endswith(".py"):
            return necklaces.cli.main(command)
        sys.argv = list(command)
        runpy.run_path(command[0], run_name="__main__")
        return 0

    run = recorder.wrap(ROOT_SPAN, command_main)
    try:
        code = run()
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        recorder.dump(out_path, import_s=import_s, untraced=missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
