"""In-memory spans around the package's public functions, installed from outside.

``install`` replaces each traced function with a wrapper in every permpat
module that binds it by name (``catalog`` and ``cli`` import ``count_table``,
``orbit``, ``contains`` and others at import time, so patching only the
defining module would miss their calls).  Nothing here changes what the
functions compute.  A span is ``[name, start_ns, end_ns, parent_index]``.

Pool workers forked by ``count_tables`` inherit the wrappers but only run
``_table_worker``, which calls no traced function, so their searches show up
as the parent's wait inside the ``enumeration.count_tables`` span.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types

from oracle import count_orbits

LAYERS = ("perms", "symmetry", "lifting", "enumeration", "formulas", "catalog", "cli", "bench")

# (module, attribute) of every traced function; the span is named after both
TRACED = (
    ("perms", "contains"),
    ("perms", "find_occurrence"),
    ("perms", "parse_pattern_set"),
    ("symmetry", "orbit"),
    ("symmetry", "partition_into_classes"),
    ("lifting", "lift"),
    ("lifting", "lift_power"),
    ("lifting", "is_redundant"),
    ("enumeration", "count_table"),
    ("enumeration", "count_tables"),
    ("enumeration", "count_avoiders"),
    ("enumeration", "enumerate_avoiders"),
    ("formulas", "evaluate"),
    ("formulas", "render"),
    ("catalog", "verify"),
    ("catalog", "expand_universe"),
    ("catalog", "assign_entries"),
    ("catalog", "classify"),
    ("cli", "main"),
)

now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # largest n at which each pattern set has been answered in this run
        self.answered: dict[frozenset, int] = {}
        self.searches_ms: list[float] = []
        self.table_calls = 0
        self.table_repeats = 0
        self.avoiders = 0
        self.perms_out = 0
        self.count_calls = 0
        self.long_count_calls = 0
        self.universe: list[frozenset] = []

    def span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, now(), 0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
            if after is not None:
                after(rec, args, out)
            return out

        return traced

    # --- counters taken at the same boundaries as the spans ---------------

    def _count_table(self, rec, args, out):
        key, n_max = out.pattern_set, out.n_max
        self.table_calls += 1
        if self.answered.get(key, -1) >= n_max:
            self.table_repeats += 1
        else:
            self.searches_ms.append((rec[2] - rec[1]) / 1e6)
            self.avoiders += sum(out.counts)
            self.answered[key] = n_max

    def _count_tables(self, rec, args, out):
        # with jobs > 1 the searches ran in workers; count what they answered
        for table in out:
            if self.answered.get(table.pattern_set, -1) < table.n_max:
                self.avoiders += sum(table.counts)
                self.answered[table.pattern_set] = table.n_max

    def _enumerate(self, rec, args, out):
        self.perms_out += len(out)
        self.avoiders += len(out)

    def _count_avoiders(self, rec, args, out):
        self.count_calls += 1
        if any(len(p) >= 5 for p in args[1]):
            self.long_count_calls += 1

    def _expand(self, rec, args, out):
        self.universe.extend(out)


def install(tracer: Tracer):
    """Wrap every traced function wherever a permpat module binds it."""
    import permpat
    from permpat import catalog, cli, enumeration, formulas, lifting, perms, symmetry

    modules = {
        "perms": perms, "symmetry": symmetry, "lifting": lifting, "enumeration": enumeration,
        "formulas": formulas, "catalog": catalog, "cli": cli,
    }
    hooks = {
        "enumeration.count_table": tracer._count_table,
        "enumeration.count_tables": tracer._count_tables,
        "enumeration.enumerate_avoiders": tracer._enumerate,
        "enumeration.count_avoiders": tracer._count_avoiders,
        "catalog.expand_universe": tracer._expand,
    }
    binders = [permpat, *modules.values()]
    for mod_name, attr in TRACED:
        fn = getattr(modules[mod_name], attr)
        name = f"{mod_name}.{attr}"
        wrapped = tracer.span(name, fn, hooks.get(name))
        for mod in binders:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
    # serialization of the verify report: building the dict, dumping it and
    # writing it out all count as cli.serialize
    report = catalog.VerificationReport
    report.to_json_dict = tracer.span("cli.serialize", report.to_json_dict)
    cli.json = types.SimpleNamespace(dumps=tracer.span("cli.serialize", cli.json.dumps))
    cli._emit = tracer.span("cli.serialize", cli._emit)


def quantile(values, q: int) -> float:
    """The q-th percentile as statistics.quantiles gives it; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def summarize(tracer: Tracer) -> dict:
    """Per-function and per-layer figures derived from the spans."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    self_ns = list(dur)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_ns[s[3]] -= dur[i]
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    layer_self = {layer: 0 for layer in LAYERS}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0) + self_ns[i]
        layer_self[name.split(".", 1)[0]] += self_ns[i]
        # inclusive time counts only the outermost span of a name
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0) + dur[i]
    root = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
    return {
        "calls": calls,
        "s": {k: v / 1e9 for k, v in total.items()},
        "self_s": {k: v / 1e9 for k, v in own.items()},
        "layer_self_s": {k: v / 1e9 for k, v in layer_self.items()},
        "root_s": root / 1e9,
        "spans": len(spans),
        "table_calls": tracer.table_calls,
        "table_repeats": tracer.table_repeats,
        "search_ms_p50": quantile(tracer.searches_ms, 50),
        "search_ms_p99": quantile(tracer.searches_ms, 99),
        "avoiders": tracer.avoiders,
        "perms_out": tracer.perms_out,
        "count_calls": tracer.count_calls,
        "long_count_calls": tracer.long_count_calls,
        "universe_sets": len(tracer.universe),
        "universe_orbits": count_orbits(tracer.universe),
    }


def write_spans(tracer: Tracer, path) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][1] if tracer.spans else 0
    with open(path, "w") as fh:
        json.dump({
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "names": names,
            "spans": [[index[s[0]], s[1] - t0, s[2] - t0, s[3]] for s in tracer.spans],
        }, fh, separators=(",", ":"))
