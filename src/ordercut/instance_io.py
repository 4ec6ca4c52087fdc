"""Instance file format.

    # optional comment lines
    p dg|ug <n> <m> [w]
    a <u> <v> [<weight>]     (m lines, vertices 1-indexed)

The weight column is mandatory exactly when the header carries the 'w' flag.
For ug instances each edge appears once. Serialization is canonical: no
comments, arcs sorted by (u, v), so parse(serialize(g)) == g.
"""

from __future__ import annotations

import sys

from . import guards
from .graph import Digraph


class ParseError(ValueError):
    """Malformed instance text; the message identifies the defect."""


def _shown(text: str) -> str:
    """text quoted for a message, cut after its first 60 characters."""
    return repr(text[:60]) + ("..." if len(text) > 60 else "")


def _int(token: str, what: str, lineno: int) -> int:
    """At most sys.get_int_max_str_digits() ASCII digits with an optional leading
    '-' (int() alone would also take '1_0', '+1' and full-width digits)."""
    digits = token.removeprefix("-")
    try:
        if digits.isascii() and digits.isdigit():
            return int(token)
    except ValueError:      # more digits than int() converts
        raise ParseError(f"line {lineno}: {what} is not an integer of at most "
                         f"{sys.get_int_max_str_digits()} digits (it has {len(digits)})")
    raise ParseError(f"line {lineno}: {what} is not an integer: {_shown(token)}")


def parse_graph(text: str) -> Digraph:
    """Parse instance text into a Digraph (0-indexed internally). Every
    check of Digraph's is made here, line by line, so the arcs go to the
    graph as they are, sorted, with no second check."""
    header = None
    weights: dict[tuple[int, int], int] = {}   # arc as given -> weight
    n = m = 0
    undirected = weighted = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(tokens) not in (4, 5) or (len(tokens) == 5 and tokens[4] != "w"):
                raise ParseError(f"line {lineno}: malformed header")
            if tokens[1] not in ("dg", "ug"):
                raise ParseError(f"line {lineno}: unknown graph mode {_shown(tokens[1])}")
            undirected = tokens[1] == "ug"
            weighted = len(tokens) == 5
            n = _int(tokens[2], "vertex count", lineno)
            m = _int(tokens[3], "arc count", lineno)
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative count in header")
            guards.check_universe(n)   # before Digraph allocates n vertices
            header = (n, m)
        elif tokens[0] == "a":
            if header is None:
                raise ParseError(f"line {lineno}: arc line before header")
            if weighted and len(tokens) != 4:
                raise ParseError(f"line {lineno}: weighted instance needs 'a u v w'")
            if not weighted and len(tokens) != 3:
                raise ParseError(f"line {lineno}: unweighted instance needs 'a u v'")
            u = _int(tokens[1], "arc tail", lineno)
            v = _int(tokens[2], "arc head", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex index out of range (n={n})")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at vertex {u}")
            key = (u - 1, v - 1)
            dup = key in weights or (undirected and (key[1], key[0]) in weights)
            if dup:
                raise ParseError(f"line {lineno}: duplicate arc {u} -> {v}")
            w = 1
            if weighted:
                w = _int(tokens[3], "weight", lineno)
                if w < 0:
                    raise ParseError(f"line {lineno}: negative weight on arc {u} -> {v}")
            weights[key] = w
        else:
            raise ParseError(f"line {lineno}: unknown line type {_shown(tokens[0])}")
    if header is None:
        raise ParseError("missing header line")
    if len(weights) != m:
        raise ParseError(f"arc count mismatch: header says {m}, body has {len(weights)}")
    items = [(u, v, w) for (u, v), w in weights.items()]
    if undirected:   # each edge in both directions
        items += [(v, u, w) for u, v, w in items]
    return Digraph.__new__(Digraph)._set_arcs(n, undirected, weighted, tuple(sorted(items)))


def serialize_graph(g: Digraph) -> str:
    """Canonical text for g (inverse of parse_graph on canonical input)."""
    mode = "ug" if g.undirected else "dg"
    head = f"p {mode} {g.n} {g.m}"
    if g.weighted:
        head += " w"
    lines = [head]
    items = g.edge_items() if g.undirected else iter(g.arc_items)
    for u, v, w in items:
        if g.weighted:
            lines.append(f"a {u + 1} {v + 1} {w}")
        else:
            lines.append(f"a {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
