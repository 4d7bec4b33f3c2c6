"""Independent checks of lahverify CLI output.

Every expected value here comes from ``math.factorial``, ``math.comb`` or a
Stirling recurrence written out below, never from a lahverify function, so
the oracle shares no code with what it checks. Outputs are read from files
line by line; a table output of a few hundred megabytes is never held in
memory as a whole.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

TABLE_SAMPLE_ROWS = 8


def option(argv: list[str], name: str, default: str | None = None) -> str | None:
    """Value following ``name`` in an argument list."""
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def identity_value(k: int, n: int) -> int:
    """Closed form of S(k, n) = sum over l of (-1)^l (n+l)! L(k, l)."""
    if n <= k - 2:
        return 0
    sign = -1 if k % 2 else 1
    return sign * (math.factorial(n) * math.factorial(n + 1) // math.factorial(n - k + 1))


def lah_number(n: int, k: int) -> int:
    """L(n, k) = C(n-1, k-1) n!/k!, with L(0, 0) = 1."""
    if n == k == 0:
        return 1
    if k < 1 or k > n:
        return 0
    return math.comb(n - 1, k - 1) * (math.factorial(n) // math.factorial(k))


def stirling1_rows(max_n: int):
    """Rows s(m, 0..m) for m = 0..max_n of the signed Stirling numbers, from
    s(m+1, j) = s(m, j-1) - m s(m, j)."""
    row = [1]
    for m in range(max_n + 1):
        yield row
        row = [(row[j - 1] if j else 0) - (m * row[j] if j <= m else 0) for j in range(m + 2)]


def verify_grid(argv: list[str]) -> list[tuple[int, int]]:
    ks = range(int(option(argv, "--k-min")), int(option(argv, "--k-max")) + 1)
    ns = range(int(option(argv, "--n-min")), int(option(argv, "--n-max")) + 1)
    return [(k, n) for k in ks for n in ns]


def items(argv: list[str]) -> int:
    """Work items one CLI invocation produces: verified instances, printed
    triangle entries, or one scalar."""
    if argv[0] == "verify":
        return len(verify_grid(argv))
    if argv[0] == "table":
        max_n = int(option(argv, "--max-n"))
        return (max_n + 1) * (max_n + 2) // 2
    return 1


def check_verify(argv: list[str], path) -> tuple[int, list[str]]:
    """Compare every (k, n) of a ``verify`` output with the closed form.

    Returns (instances that match, problems). An
    instance matches when it is present in lexicographic order, its
    reference and every route value equal the closed form, and its
    all_match flag is true.
    """
    routes = ["lhs_direct", *sorted(option(argv, "--routes").split(","))]
    grid = verify_grid(argv)
    fmt = option(argv, "--format", "text")
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            rows = [
                (e["k"], e["n"], e["reference"], list(e["routes"]), list(e["routes"].values()), e["all_match"])
                for e in json.load(fh)
            ]
    elif fmt == "csv":
        rows = []
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            names = header[3:-1]
            for line in fh:
                f = line.rstrip("\n").split(",")
                rows.append((int(f[0]), int(f[1]), f[2], names, f[3:-1], f[-1] == "true"))
    else:
        raise ValueError(f"the oracle reads json or csv verify output, not {fmt!r}")
    problems = []
    if len(rows) != len(grid):
        problems.append(f"expected {len(grid)} instances, got {len(rows)}")
    ok = 0
    for (k, n), (rk, rn, ref, names, values, all_match) in zip(grid, rows):
        want = str(identity_value(k, n))
        if (rk, rn) == (k, n) and names == routes and ref == want and all_match and all(v == want for v in values):
            ok += 1
        elif len(problems) < 5:
            problems.append(f"instance k={k} n={n} disagrees with the closed form")
    return ok, problems


def check_table(argv: list[str], path, seed: int) -> tuple[int, list[str]]:
    """Check the shape of a ``table`` output and the values of rows sampled
    with ``seed``. Returns (entries that pass, problems)."""
    kind, max_n = argv[1], int(option(argv, "--max-n"))
    rng = random.Random(f"{seed}:{kind}:{max_n}")
    sampled = set(rng.sample(range(max_n + 1), min(TABLE_SAMPLE_ROWS, max_n + 1))) | {max_n}
    if kind == "lah":
        want = {n: [lah_number(n, k) for k in range(n + 1)] for n in sampled}
    else:
        want = {m: row for m, row in enumerate(stirling1_rows(max_n)) if m in sampled}
    entries = items(argv)
    problems = []
    seen = {n: [] for n in sampled}
    lines = 0
    with open(path, encoding="utf-8") as fh:
        if option(argv, "--format", "text") == "csv":
            if fh.readline() != "n,k,value\n":
                problems.append("missing csv header")
            for line in fh:
                lines += 1
                n_field, k_field, value = line.rstrip("\n").split(",")
                n = int(n_field)
                if n in seen:
                    seen[n].append((int(k_field), int(value)))
            got = {n: [v for _, v in sorted(pairs)] for n, pairs in seen.items()}
            if lines != entries:
                problems.append(f"expected {entries} csv rows, got {lines}")
        else:
            got = {}
            for n, line in enumerate(fh):
                lines += 1
                if n in seen:
                    got[n] = [int(v) for v in line.split()]
                elif line.count(" ") != n:
                    problems.append(f"row {n} does not have {n + 1} entries")
                    break
            if lines != max_n + 1:
                problems.append(f"expected {max_n + 1} rows, got {lines}")
    for n in sorted(sampled):
        if got.get(n) != want[n]:
            problems.append(f"{kind} row {n} disagrees with the oracle")
    return (0 if problems else entries), problems


def check_scalar(argv: list[str], path) -> tuple[int, list[str]]:
    """Check ``lah`` or ``stirling1`` output for one (n, k)."""
    n, k = int(option(argv, "--n")), int(option(argv, "--k"))
    if argv[0] == "lah":
        want = lah_number(n, k)
    else:
        for row in stirling1_rows(n):
            pass
        want = row[k] if k <= n else 0
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text == f"{want}\n":
        return 1, []
    return 0, [f"{argv[0]}({n}, {k}) disagrees with the oracle"]


def check_output(argv: list[str], path, seed: int) -> tuple[int, list[str]]:
    """Dispatch on the CLI command; returns (items that pass, problems)."""
    if argv[0] == "verify":
        return check_verify(argv, path)
    if argv[0] == "table":
        return check_table(argv, path, seed)
    return check_scalar(argv, path)
