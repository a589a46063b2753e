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
from typing import Mapping

from .complexes import (Complex, Generator, _bidegree_error, _graded_row,
                        _image_grading)
from .errors import CfkParseError, StructuralError
from .morphism import IotaData, LinMap, differential_map
from .ring import Ideal, Mono, parse_mono

_RING_TAGS = {"zero": "full", "uv": "modUV"}
_TAG_RINGS = {"full": Ideal.zero(), "modUV": Ideal.uv()}
_MAX = Ideal.max_ideal()


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
               index: Mapping[str, int]) -> dict[str, set[Mono]]:
    """Parse `[mono] name + [mono] name + ...`, over the generators in
    `index`, into each target's monomials; repeated terms cancel."""
    if tokens == ["0"]:
        return {}
    monos: dict[str, set[Mono]] = {}
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
    row = {k: v for k, v in monos.items() if v}
    for name in row:
        if name not in index:
            raise CfkParseError(f"unknown generator {name!r}", lineno)
    return row


@dataclass(frozen=True)
class CfkFile:
    complex: Complex
    iota: IotaData | None


def parse_cfk(text: str) -> CfkFile:
    """The complex and involution of a .cfk text.  Terms of d off the
    grading rule are kept for `validate`; iota terms off it raise."""
    name = ring = None
    gens: list[Generator] = []
    index: dict[str, int] = {}
    actions: dict[str, dict[str, dict[str, set[Mono]]]] = {"d": {}, "iota": {}}
    iota_rows: dict[int, int] = {}

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
                g = Generator(tokens[1], int(tokens[3]), int(tokens[4]))
            except (ValueError, StructuralError) as err:
                raise CfkParseError(str(err), lineno) from None
            if g.name in index:
                raise CfkParseError("duplicate generator names", lineno)
            index[g.name] = len(gens)
            gens.append(g)
        elif kind in actions:
            if len(tokens) < 4 or tokens[2] != "=":
                raise CfkParseError(f"malformed {kind} line", lineno)
            src = tokens[1]
            if src not in index:
                raise CfkParseError(f"unknown generator {src!r}", lineno)
            if src in actions[kind]:
                raise CfkParseError(f"repeated {kind} line for {src!r}", lineno)
            terms = actions[kind][src] = _parse_sum(tokens[3:], lineno, index)
            if kind == "iota":
                s = index[src]
                iota_rows[s], off = _graded_row(
                    terms, _image_grading(gens[s], "skew", (0, 0)), _MAX, gens,
                    index.__getitem__)
                if off:
                    err = _bidegree_error(src, *off[0], (0, 0))
                    raise CfkParseError(f"bad iota data: {err}", lineno)
        else:
            raise CfkParseError(f"unknown directive {kind!r}", lineno)
    if name is None or ring is None:
        raise CfkParseError("missing complex header", 1)
    C = Complex(gens, actions["d"], ring, name)
    iota = None
    if actions["iota"]:
        rows = [iota_rows.get(s, 0) for s in range(len(gens))]
        iota = IotaData(LinMap(C, C, "skew", (0, 0), _MAX, rows))
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
        s = source._index.get(src)
        if s is None:
            raise CfkParseError(f"unknown generator {src!r}", lineno)
        if src in seen:
            raise CfkParseError(f"repeated map line for {src!r}", lineno)
        seen.add(src)
        terms = _parse_sum(tokens[7:], lineno, target._index)
        if not terms:
            continue
        if bidegree is None:
            tgt, monos = next(iter(terms.items()))
            y, m = target.generator(tgt), min(monos)
            eu, ev = _image_grading(source.basis[s], variance, (0, 0))
            bidegree = (y.gr_u - 2 * m.i - eu, y.gr_v - 2 * m.j - ev)
        rows[s], off = _graded_row(
            terms, _image_grading(source.basis[s], variance, bidegree),
            source.ring, target.basis, target.index)
        if off:
            raise CfkParseError(
                str(_bidegree_error(src, *off[0], bidegree)), lineno)
    return LinMap(source, target, variance or "eq", bidegree or (0, 0),
                  source.ring, rows)
