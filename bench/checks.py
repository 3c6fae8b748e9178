"""Answer checks with integer arithmetic of the benchmark's own.

Each check takes plain (num, den) pairs, never the package's objects, and
returns None when the answer is right or a one-line reason when it is wrong.
The characterizations used:

- a/b < c/d are consecutive in F_m exactly when c*b - a*d = 1 and
  max(b, d) <= m < b + d;
- the triple around n/N in F_N is (l, n/N, r) with both adjacent pairs
  unimodular and both outer denominators below N.
"""

from __future__ import annotations

import json

from inputs import GOLDENS, ladder_steps, verify_counts


def _det(a: int, b: int, c: int, d: int) -> int:
    """c/d - a/b scaled by b*d: 1 exactly for unimodular a/b < c/d."""
    return c * b - a * d


def check_triple(n: int, order: int, left, center, right) -> str | None:
    if center != (n, order):
        return f"center {center} is not {n}/{order}"
    if _det(*left, *center) != 1:
        return f"left pair {left} {center} is not unimodular"
    if _det(*center, *right) != 1:
        return f"right pair {center} {right} is not unimodular"
    if not (0 < left[1] < order and 0 < right[1] < order):
        return f"outer denominators {left[1]}, {right[1]} not below {order}"
    return None


def check_next(x, order: int, got) -> str | None:
    """``got`` must be the term right after x in F_order."""
    if _det(*x, *got) != 1:
        return f"{got} is not unimodular just above {x}"
    if not (got[1] <= order < x[1] + got[1]):
        return f"{got} is not adjacent to {x} at order {order}"
    return None


def check_prev(x, order: int, got) -> str | None:
    """``got`` must be the term right before x in F_order."""
    if _det(*got, *x) != 1:
        return f"{got} is not unimodular just below {x}"
    if not (got[1] <= order < x[1] + got[1]):
        return f"{got} is not adjacent to {x} at order {order}"
    return None


def check_verify(k: int, code: int, stdout: str) -> str | None:
    """`verify K --json` must exit 0, say ok, and count what phi predicts."""
    if code != 0:
        return f"verify {k} exited {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"verify {k} printed no JSON document"
    want = verify_counts(k)
    if doc.get("ok") is not True:
        return f"verify {k} reported ok={doc.get('ok')}"
    for key in ("orders", "triples"):
        if doc.get(key) != want[key]:
            return f"verify {k} reported {key}={doc.get(key)}, phi gives {want[key]}"
    return None


def _fraction(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den)


def evaluate(coeffs: list[int]) -> tuple[int, int]:
    """Value of [c0, c1, ..., ck] by the convergent recurrence."""
    p_prev, p, q_prev, q = 1, coeffs[0], 0, 1
    for c in coeffs[1:]:
        p_prev, p = p, c * p + p_prev
        q_prev, q = q, c * q + q_prev
    return p, q


def check_command(argv, code: int, stdout: str) -> str | None:
    """Check the text output of one CLI command from the oneshot section."""
    if code != 0:
        return f"{' '.join(argv)} exited {code}"
    out = stdout.strip()
    try:
        command = argv[0]
        if command == "triple":
            n, order = int(argv[1]), int(argv[2])
            left, center, right = (_fraction(t) for t in out.split(" "))
            return check_triple(n, order, left, center, right)
        if command in ("next", "prev"):
            x, order = _fraction(argv[1]), int(argv[2])
            got = _fraction(out.split(" ")[0])
            if command == "prev":
                return check_prev(x, order, got)
            if out != f"{got[0]}/{got[1]} (l={ladder_steps(*x, order)})":
                return f"next {argv[1]} {order}: rung count wrong in {out!r}"
            return check_next(x, order, got)
        if command == "cf":
            coeffs = [int(c) for c in out.strip("[]").split(",")]
            if evaluate(coeffs) != _fraction(argv[1]) or min(coeffs[1:]) < 1 or coeffs[-1] < 2:
                return f"cf {argv[1]}: {out!r} is not its canonical expansion"
            return None
        if command == "chain":
            rho, terminal, k = out.split(" ")
            quotients = [int(q) for q in rho[len("rho=["):-1].split(",") if q]
            t = int(terminal[len("terminal="):])
            ok = (
                evaluate([0, *quotients, t]) == _fraction(argv[1])
                and all(q >= 1 for q in quotients)
                and t >= 2
                and int(k[len("k="):]) == len(quotients)
            )
            return None if ok else f"chain {argv[1]}: {out!r} does not reduce it"
    except ValueError:
        return f"{' '.join(argv)}: cannot read {out!r}"
    return f"no check for command {command!r}"


def check_goldens(run_command) -> list[str | None]:
    """Run PAPER.md's worked examples through ``run_command(argv) -> (code,
    stdout)``; one result per example, None where the output is exact."""
    results = []
    for argv, want in GOLDENS:
        code, out = run_command(list(argv))
        ok = code == 0 and out.strip() == want
        results.append(None if ok else f"{' '.join(argv)}: want {want!r}, got {out.strip()!r}")
    return results
