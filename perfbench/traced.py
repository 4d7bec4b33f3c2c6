"""Traced in-process run of lahverify CLI commands, for per-layer metrics.

Run in a fresh interpreter (so ``factorial``'s cache starts cold, as it does
for every CLI user) with ``src`` on ``PYTHONPATH``:

    python3 perfbench/traced.py --commands '[["verify", ...]]' --spans-out FILE --stdout-out FILE

Each command goes through ``lahverify.cli.run`` in this process, so a
verify command should ask for ``--jobs 1``. The
layers are measured from outside: before the first command, every traced
public function is rebound, in every lahverify module that holds a
reference to it, to a wrapper that records either a span (layer
boundaries: each command, the grid, each instance, each route, the r6
chain, the triangle builders and ``emit_report``) or a call count and
accumulated time (hot primitives, which run millions of times). No file
of the package is changed. The spans are written to ``--spans-out``; the
last line of standard output is a JSON object with the per-command stdout
digests and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import time

import lahverify
from lahverify import cli, exact, numbers, series, symbolic, verify

MODULES = (lahverify, exact, numbers, series, symbolic, verify, cli)
DIGITS = b"0123456789"


class Tracer:
    """Spans and counters, kept in memory until the run ends."""

    def __init__(self) -> None:
        # span record: [name, parent index, (k, n) or None, start, end, child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}
        self.work: dict[str, int] = {
            "series.coeff_mults": 0,
            "symbolic.terms": 0,
            "numbers.triangle_entries": 0,
            "verify.consistency_errors": 0,
        }

    def span(self, name, fn, ident=None, work=None):
        """Wrap ``fn`` so each call records a span. ``ident`` maps the
        arguments to the instance id; without it a span inherits its
        parent's id. ``work`` maps (args, result) to a count for
        ``self.work``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        route = name.startswith("verify.route.")

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = ident(args) if ident else (spans[parent][2] if parent >= 0 else None)
            record = [name, parent, sid, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            except exact.ConsistencyError:
                if route:
                    self.work["verify.consistency_errors"] += 1
                raise
            finally:
                record[4] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += record[4] - record[3]
            if work:
                self.work[work[0]] += work[1](args, out)
            return out

        return wrapper

    def counted(self, name, fn, work=None):
        """Wrap ``fn`` to count its calls and accumulate its time, which
        includes the time of any traced function it calls."""
        stat = self.counters.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat[0] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                stat[1] += clock() - start
            if work:
                self.work[work[0]] += work[1](args, out)
            return out

        return wrapper


def _series_products(args, _out) -> int:
    # products series_mul performs: pairs (i, j) with i + j <= order and
    # both coefficients nonzero
    a, b = args
    order = min(a.order, b.order)
    below = []
    count = 0
    for c in b.coeffs[: order + 1]:
        count += bool(c)
        below.append(count)
    return sum(below[order - i] for i, c in enumerate(a.coeffs[: order + 1]) if c)


def _poly_products(args, _out) -> int:
    a, b = args
    return sum(map(bool, a.coeffs)) * sum(map(bool, b.coeffs))


def _instance_id(args):
    return (args[0].k, args[0].n)


def install(tracer: Tracer) -> None:
    """Rebind every traced function in every module that imports it."""
    terms = ("symbolic.terms", lambda _args, out: len(out.terms))
    wrappers = {
        cli.emit_report: tracer.span("cli.emit_report", cli.emit_report),
        verify.verify_grid: tracer.span("verify.grid", verify.verify_grid),
        verify.verify_instance: tracer.span("verify.instance", verify.verify_instance, _instance_id),
        verify.lhs_direct: tracer.span("verify.route.lhs_direct", verify.lhs_direct, _instance_id),
        verify.rhs_reference: tracer.span("verify.route.rhs_reference", verify.rhs_reference, _instance_id),
        symbolic.route6_coefficient_chain: tracer.span("symbolic.chain", symbolic.route6_coefficient_chain),
        numbers.lah_triangle: tracer.span(
            "numbers.lah_triangle", numbers.lah_triangle,
            work=("numbers.triangle_entries", lambda _args, out: len(out.entries)),
        ),
        numbers.stirling1_triangle: tracer.span(
            "numbers.stirling1_triangle", numbers.stirling1_triangle,
            work=("numbers.triangle_entries", lambda _args, out: len(out.entries)),
        ),
        series.series_mul: tracer.counted("series.series_mul", series.series_mul, ("series.coeff_mults", _series_products)),
        series.poly_mul: tracer.counted("series.poly_mul", series.poly_mul, ("series.coeff_mults", _poly_products)),
        symbolic.laurent_from_terms: tracer.counted("symbolic.laurent_from_terms", symbolic.laurent_from_terms, terms),
        symbolic.expr_from_terms: tracer.counted("symbolic.expr_from_terms", symbolic.expr_from_terms, terms),
    }
    for name, fn in verify.ROUTE_FUNCTIONS.items():
        wrappers[fn] = tracer.span(f"verify.route.{name}", fn, _instance_id)
    for module, names in (
        (exact, ("factorial", "binomial_general", "rising", "falling", "reciprocal_factorial_weight")),
        (numbers, ("lah", "stirling1", "stirling1_from_rising_poly")),
        (series, ("series_binomial_power",)),
        (symbolic, ("laurent_diff", "expr_diff_t", "expr_mul_u_poly", "expr_moment_u",
                    "stirling_weighted_moment", "exp_derivative_lah")),
    ):
        for name in names:
            fn = getattr(module, name)
            wrappers[fn] = tracer.counted(f"{module.__name__.split('.')[-1]}.{name}", fn)

    by_id = {id(fn): wrapper for fn, wrapper in wrappers.items()}
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, attr, by_id[id(value)])
    for name, fn in list(verify.ROUTE_FUNCTIONS.items()):
        verify.ROUTE_FUNCTIONS[name] = by_id[id(fn)]


def file_digest(path: str) -> dict:
    """sha256, byte count and count of digit characters of a file, read in
    chunks so that a large output is never held in memory."""
    sha, size, digits = hashlib.sha256(), 0, 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
            size += len(chunk)
            digits += len(chunk) - len(chunk.translate(None, DIGITS))
    return {"sha256": sha.hexdigest(), "bytes": size, "digits": digits}


def summarize(tracer: Tracer, commands: list[list[str]], roots: list[int], cache_info) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced run."""
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    layer_self: dict[str, float] = {"cli": 0.0, "verify": 0.0, "symbolic": 0.0, "numbers": 0.0}
    instance_ms = []
    for name, _parent, _sid, start, end, child in tracer.spans:
        total[name] = total.get(name, 0.0) + end - start
        count[name] = count.get(name, 0) + 1
        layer_self[name.split(".")[0]] += end - start - child
        if name == "verify.instance":
            instance_ms.append((end - start) * 1e3)
    render = 0.0
    for argv, root in zip(commands, roots):
        if argv[0] == "table":
            name, _parent, _sid, start, end, child = tracer.spans[root]
            render += end - start - child

    m: dict[str, float] = {}
    for name, (calls, seconds) in tracer.counters.items():
        m[f"{name}.calls"] = calls
        m[f"{name}_s"] = seconds
    hits, misses = cache_info.hits, cache_info.misses
    m["exact.factorial.cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    m["exact.factorial.cache_entries"] = cache_info.currsize
    m.update(tracer.work)
    m["symbolic.chain.calls"] = count.get("symbolic.chain", 0)
    m["symbolic.chain_s"] = total.get("symbolic.chain", 0.0)
    m["numbers.lah_triangle_s"] = total.get("numbers.lah_triangle", 0.0)
    m["numbers.stirling1_triangle_s"] = total.get("numbers.stirling1_triangle", 0.0)
    for name in (*verify.ROUTE_FUNCTIONS, "lhs_direct", "rhs_reference"):
        m[f"verify.route_s.{name}"] = total.get(f"verify.route.{name}", 0.0)
    m["verify.instances"] = len(instance_ms)
    if len(instance_ms) >= 2:
        cuts = statistics.quantiles(instance_ms, n=100, method="inclusive")
        m["verify.instance_p50_ms"], m["verify.instance_p99_ms"] = cuts[49], cuts[98]
    else:
        m["verify.instance_p50_ms"] = m["verify.instance_p99_ms"] = instance_ms[0] if instance_ms else 0.0
    m["cli.render_s"] = render
    m["cli.emit_report_s"] = total.get("cli.emit_report", 0.0)
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = seconds
    m["trace.layers_s"] = sum(tracer.spans[r][4] - tracer.spans[r][3] for r in roots)
    m["trace.spans"] = len(tracer.spans)
    return m


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", required=True, help="JSON list of CLI argument lists")
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--stdout-out", required=True, help="file each command's stdout is written to")
    args = parser.parse_args()
    commands = json.loads(args.commands)

    factorial_cache = exact.factorial.cache_info
    tracer = Tracer()
    install(tracer)
    run = tracer.span("cli.run", cli.run)
    results, roots = [], []
    for argv in commands:
        roots.append(len(tracer.spans))
        # to a file, as in an untraced run, so both pay for the same writes
        with open(args.stdout_out, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        results.append({"code": code, **file_digest(args.stdout_out)})

    metrics = summarize(tracer, commands, roots, factorial_cache())
    metrics["cli.stdout_bytes"] = sum(r["bytes"] for r in results)
    metrics["cli.decimal_digits"] = sum(r["digits"] for r in results)
    with open(args.spans_out, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "parent", "id", "start_s", "end_s", "child_s"], "spans": tracer.spans}, fh)
    print(json.dumps({"commands": results, "metrics": metrics}))


if __name__ == "__main__":
    main()
