"""graph6 text encoding for undirected simple graphs.

Covers all three header forms (short, '~'-extended, '~~'-extended).  Parsing
is strict: truncated bodies, trailing characters, out-of-range bytes and
nonzero padding bits are all rejected with distinct messages.
"""

from __future__ import annotations

from .graphs import Graph


class Graph6Error(ValueError):
    """String is not a valid graph6 encoding."""


def _decode_header(s: str):
    # returns (n, body offset)
    if not s:
        raise Graph6Error("empty graph6 string")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            if len(s) < 8:
                raise Graph6Error("malformed graph6 header: '~~' needs 6 size characters")
            chunk, off = s[2:8], 8
        else:
            if len(s) < 4:
                raise Graph6Error("malformed graph6 header: '~' needs 3 size characters")
            chunk, off = s[1:4], 4
        n = 0
        for ch in chunk:
            v = ord(ch) - 63
            if not 0 <= v < 64:
                raise Graph6Error("malformed graph6 header: size character %r out of range" % ch)
            n = (n << 6) | v
        return n, off
    v = ord(s[0]) - 63
    if not 0 <= v <= 62:
        raise Graph6Error("malformed graph6 header: leading character %r out of range" % s[0])
    return v, 1


def parse_graph6(s: str) -> Graph:
    """Decode one graph6 string (no trailing newline) into a Graph."""
    s = s.rstrip("\n")
    n, off = _decode_header(s)
    nbits = n * (n - 1) // 2
    nbody = (nbits + 5) // 6
    body = s[off:]
    if len(body) < nbody:
        raise Graph6Error(
            "truncated graph6 body: need %d characters for %d vertices, got %d"
            % (nbody, n, len(body)))
    if len(body) > nbody:
        raise Graph6Error("trailing characters after graph6 body")
    bits = 0
    for ch in body:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise Graph6Error("graph6 body character %r out of range" % ch)
        bits = (bits << 6) | v
    pad = 6 * nbody - nbits
    if pad:
        if bits & ((1 << pad) - 1):
            raise Graph6Error("nonzero padding bits in graph6 body")
        bits >>= pad
    rows = [0] * n
    # bit order: pairs (0,1), (0,2), (1,2), (0,3), ... column by column
    pos = nbits - 1
    for col in range(1, n):
        for row in range(col):
            if pos >= 0 and (bits >> pos) & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            pos -= 1
    # rows are built in pairs below n: symmetric, in range and loop-free
    return Graph._trusted(n, tuple(rows))


def emit_graph6(g: Graph) -> str:
    """Encode a Graph as a graph6 string."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> k) & 63) + 63) for k in (12, 6, 0))
    elif n <= 68719476735:
        head = "~~" + "".join(chr(((n >> k) & 63) + 63) for k in (30, 24, 18, 12, 6, 0))
    else:
        raise Graph6Error("graph too large for graph6")
    nbits = n * (n - 1) // 2
    bits = 0
    pos = nbits - 1
    for col in range(1, n):
        for row in range(col):
            if g.has_edge(row, col):
                bits |= 1 << pos
            pos -= 1
    pad = (6 - nbits % 6) % 6
    bits <<= pad
    nbody = (nbits + 5) // 6
    body = []
    for i in range(nbody - 1, -1, -1):
        body.append(chr(((bits >> (6 * i)) & 63) + 63))
    return head + "".join(body)


def parse_graph6_lines(text: str):
    """Parse one graph per nonblank line; only a newline ends a line."""
    out = []
    for line in text.split("\n"):
        line = line.strip()
        if line:
            out.append(parse_graph6(line))
    return out
