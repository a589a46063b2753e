"""The .cfk text format: bit-exact serialization of complexes and maps.

Grammar (UTF-8, LF line endings, `#` starts a comment):

    complex <name> ring <full|modUV>
    gen <name> gr <grU> <grV>
    d <name> = [mono] <name> + [mono] <name> ...
    iota <name> = <name> + <name> ...          # optional, mod (U,V)
    map <name> variance <eq|skew> : <gen> -> <sum>   # sidecar files

A monomial renders as `U^i V^j` with `^1` omitted and absent factors
dropped; a bare generator name means coefficient 1.  Rendering is
canonical (basis order, then target order, then lexicographic monomial
order), so parse/render round trips are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Complex, Generator
from .errors import CfkParseError, StructuralError
from .morphism import IotaData, LinMap, _action_row, differential_map
from .ring import Ideal, RingElt, parse_mono

_RING_TAGS = {"zero": "full", "uv": "modUV"}
_TAG_RINGS = {"full": Ideal.zero(), "modUV": Ideal.uv()}


def render_cfk(C: Complex, iota: IotaData | None = None) -> str:
    if C.ring.kind not in _RING_TAGS:
        raise StructuralError(
            f"only full and mod-UV complexes serialize, not {C.ring.kind}")
    lines = [f"complex {C.name} ring {_RING_TAGS[C.ring.kind]}"]
    for g in C.basis:
        lines.append(f"gen {g.name} gr {g.gr_u} {g.gr_v}")
    body = [differential_map(C).render_rows("d ", "=")]
    if iota is not None:
        body.append(iota.render())
    lines += [text for text in body if text]
    return "\n".join(lines) + "\n"


def _parse_sum(tokens: list[str], lineno: int,
               known: set[str]) -> dict[str, RingElt]:
    """Parse `[mono] name + [mono] name + ...`, over the generators in
    `known`, into an action row."""
    if tokens == ["0"]:
        return {}
    monos: dict[str, set] = {}  # target -> its monomials, repeats cancel
    term: list[str] = []

    def flush():
        if not term:
            raise CfkParseError("empty term in sum", lineno)
        name = term[-1]
        try:
            mono = parse_mono(term[:-1])
        except ValueError as err:
            raise CfkParseError(str(err), lineno) from None
        monos.setdefault(name, set()).symmetric_difference_update((mono,))
        term.clear()

    for tok in tokens:
        if tok == "+":
            flush()
        else:
            term.append(tok)
    flush()
    row = {k: RingElt(v) for k, v in monos.items() if v}
    for name in row:
        if name not in known:
            raise CfkParseError(f"unknown generator {name!r}", lineno)
    return row


@dataclass(frozen=True)
class CfkFile:
    complex: Complex
    iota: IotaData | None


def parse_cfk(text: str) -> CfkFile:
    name = None
    ring = None
    gens: list[Generator] = []
    known: set[str] = set()
    diff: dict[str, dict[str, RingElt]] = {}
    iota_action: dict[str, dict[str, RingElt]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "complex":
            if name is not None:
                raise CfkParseError("repeated complex header", lineno)
            if len(tokens) != 4 or tokens[2] != "ring":
                raise CfkParseError("malformed complex header", lineno)
            if tokens[3] not in _TAG_RINGS:
                raise CfkParseError(f"unknown ring tag {tokens[3]!r}", lineno)
            name, ring = tokens[1], _TAG_RINGS[tokens[3]]
        elif kind == "gen":
            if len(tokens) != 5 or tokens[2] != "gr":
                raise CfkParseError("malformed gen line", lineno)
            try:
                gens.append(Generator(tokens[1], int(tokens[3]), int(tokens[4])))
            except (ValueError, StructuralError) as err:
                raise CfkParseError(str(err), lineno) from None
            known.add(tokens[1])
        elif kind == "d":
            if len(tokens) < 4 or tokens[2] != "=":
                raise CfkParseError("malformed d line", lineno)
            if tokens[1] not in known:
                raise CfkParseError(f"unknown generator {tokens[1]!r}", lineno)
            if tokens[1] in diff:
                raise CfkParseError(f"repeated d line for {tokens[1]!r}", lineno)
            diff[tokens[1]] = _parse_sum(tokens[3:], lineno, known)
        elif kind == "iota":
            if len(tokens) < 4 or tokens[2] != "=":
                raise CfkParseError("malformed iota line", lineno)
            if tokens[1] not in known:
                raise CfkParseError(f"unknown generator {tokens[1]!r}", lineno)
            if tokens[1] in iota_action:
                raise CfkParseError(f"repeated iota line for {tokens[1]!r}", lineno)
            iota_action[tokens[1]] = _parse_sum(tokens[3:], lineno, known)
        else:
            raise CfkParseError(f"unknown directive {kind!r}", lineno)
    if name is None or ring is None:
        raise CfkParseError("missing complex header", 1)
    try:
        C = Complex(gens, diff, ring, name)
    except StructuralError as err:
        raise CfkParseError(str(err), 1) from None
    iota = None
    if iota_action:
        try:
            m = LinMap(C, C, "skew", (0, 0), iota_action, Ideal.max_ideal())
            iota = IotaData(m)
        except StructuralError as err:
            raise CfkParseError(f"bad iota data: {err}", 1) from None
    return CfkFile(C, iota)


def render_map_file(f: LinMap, name: str = "f") -> str:
    header = (f"# map {name}: {f.source.name} -> {f.target.name} "
              f"({f.variance}, bidegree {f.bidegree[0]} {f.bidegree[1]})")
    body = f.render(name)
    return header + "\n" + (body + "\n" if body else "")


def parse_map_file(text: str, source: Complex, target: Complex) -> LinMap:
    """The map of a map file.  Its bidegree is that of the first term;
    every line is checked against it as it is read."""
    rows = [0] * len(source)
    seen: set[str] = set()
    variance = bidegree = None
    sources, targets = set(source.names()), set(target.names())
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if (len(tokens) < 7 or tokens[0] != "map" or tokens[2] != "variance"
                or tokens[4] != ":" or tokens[6] != "->"):
            raise CfkParseError("malformed map line", lineno)
        tag, src = tokens[3], tokens[5]
        if tag not in ("eq", "skew"):
            raise CfkParseError(f"unknown variance {tag!r}", lineno)
        if variance is None:
            variance = tag
        elif variance != tag:
            raise CfkParseError("mixed variances in one map file", lineno)
        if src not in sources:
            raise CfkParseError(f"unknown generator {src!r}", lineno)
        if src in seen:
            raise CfkParseError(f"repeated map line for {src!r}", lineno)
        seen.add(src)
        row = _parse_sum(tokens[7:], lineno, targets)
        if bidegree is None:
            bidegree = _first_term_bidegree(src, row, source, target, variance)
        if row:
            try:
                rows[source.index(src)] = _action_row(
                    source, target, variance, bidegree, source.ring, src,
                    row)
            except StructuralError as err:
                raise CfkParseError(str(err), lineno) from None
    return LinMap.of_rows(source, target, variance or "eq", bidegree or (0, 0),
                          source.ring, rows)


def _first_term_bidegree(src: str, row, source: Complex, target: Complex,
                         variance: str) -> tuple[int, int] | None:
    """The bidegree of the first term of f(src) = `row`, if it has one."""
    gu, gv = source.grading(src)
    if variance == "skew":
        gu, gv = gv, gu
    for tgt, coeff in row.items():
        tu, tv = target.grading(tgt)
        for m in coeff:
            return (tu - 2 * m.i - gu, tv - 2 * m.j - gv)
    return None
