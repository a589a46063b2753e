"""The .cfk text format: bit-exact serialization of complexes and maps.

Grammar (UTF-8, LF line endings, `#` starts a comment):

    complex <name> ring <full|modUV>
    gen <name> gr <grU> <grV>
    d <name> = [mono] <name> + [mono] <name> ...
    iota <name> = <name> + <name> ...          # optional, mod (U,V)
    map <name> variance <eq|skew> : <gen> -> <sum>   # sidecar files

A monomial renders as `U^i V^j` with `^1` omitted and absent factors
dropped; a bare generator name means coefficient 1.  Rendering is
canonical (lines, then targets, in basis order, each target with the one
monomial its gradings fix), so round trips are byte-identical.  One
scanner reads `d`, `iota` and map lines straight into bitset rows: terms
spelled as rendered are matched token by token, and any other spelling
(`V U`, `U^1`, `1 a`, off the grading rule, an unknown name) goes
through `parse_mono`, with the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .complexes import Complex, Generator, _bidegree_error, _image_grading
from .errors import CfkParseError, StructuralError
from .morphism import IotaData, LinMap, differential_map
from .ring import Ideal, Mono, mono_words, parse_mono

_RING_TAGS = {"zero": "full", "uv": "modUV"}
_TAG_RINGS = {"full": Ideal.zero(), "modUV": Ideal.uv()}
_MAX = Ideal.max_ideal()
_SHAPES = {"d": ("eq", (-1, -1)), "iota": ("skew", (0, 0))}


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


def _scan(tokens: list[str], lineno: int, index: Mapping[str, int],
          basis: Sequence[Generator],
          e: tuple[int, int] | None) -> tuple[int, list[tuple[str, Mono]]]:
    """The sum `[mono] name + ...` over the generators of `index` as (row,
    off), repeated terms cancelled and no ideal applied: bit t of row for
    the terms U^i V^j t with gr(t) - (2i, 2j) = e, and off the other terms
    (all of them if e is None) as (target, monomial), targets in the order
    they first appear, then monomials in order.  An empty term or a bad
    monomial raises where it stands; after the whole sum, so does the
    first unknown name whose terms do not cancel."""
    if tokens == ["0"]:
        return 0, []
    words, row, odd, start = (*tokens, "+"), 0, {}, 0
    eu, ev = e or (0, 0)
    while start < len(words):
        end = words.index("+", start)
        if end == start:
            raise CfkParseError("empty term in sum", lineno)
        name, monomial = words[end - 1], words[start:end - 1]
        start, t = end + 1, index.get(name)
        if t is not None and e is not None:
            du, dv = basis[t].gr_u - eu, basis[t].gr_v - ev
            if monomial == mono_words(du, dv):
                row ^= 1 << t
                continue
        try:
            m = parse_mono(monomial)
        except ValueError as err:
            raise CfkParseError(str(err), lineno) from None
        if t is not None and e is not None and (2 * m.i, 2 * m.j) == (du, dv):
            row ^= 1 << t
        else:
            odd.setdefault(name, set()).symmetric_difference_update((m,))
    if not odd:
        return row, []
    odd = {name: monos for name, monos in odd.items() if monos}
    for name in odd:
        if name not in index:
            raise CfkParseError(f"unknown generator {name!r}", lineno)
    if len(odd) > 1:  # in the order the targets first appear
        names = (w for w, nxt in zip(words, words[1:]) if nxt == "+")
        odd = {name: odd[name] for name in dict.fromkeys(names) if name in odd}
    return row, [(name, m) for name, monos in odd.items()
                 for m in sorted(monos)]


@dataclass(frozen=True)
class CfkFile:
    complex: Complex
    iota: IotaData | None


def parse_cfk(text: str) -> CfkFile:
    """The complex and involution of a .cfk text.  Terms of d off the
    grading rule are kept for `validate`; iota terms off it raise.  The
    ring's ideal is applied to d at the end: the header may come last."""
    name = ring = None
    gens: list[Generator] = []
    index: dict[str, int] = {}
    rows: dict[str, dict[int, int]] = {"d": {}, "iota": {}}
    stray: list[tuple[int, str, str, Mono]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not (tokens := raw.split("#", 1)[0].split()):
            continue
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
        elif kind in rows:
            if len(tokens) < 4 or tokens[2] != "=":
                raise CfkParseError(f"malformed {kind} line", lineno)
            src = tokens[1]
            s = index.get(src)
            if s is None:
                raise CfkParseError(f"unknown generator {src!r}", lineno)
            if s in rows[kind]:
                raise CfkParseError(f"repeated {kind} line for {src!r}", lineno)
            rows[kind][s], off = _scan(tokens[3:], lineno, index, gens,
                                       _image_grading(gens[s], *_SHAPES[kind]))
            if kind == "d":
                stray += [(s, src, tgt, m) for tgt, m in off]
            elif off := [term for term in off if not _MAX.contains(term[1])]:
                err = _bidegree_error(src, *off[0], (0, 0))
                raise CfkParseError(f"bad iota data: {err}", lineno)
        else:
            raise CfkParseError(f"unknown directive {kind!r}", lineno)
    if name is None or ring is None:
        raise CfkParseError("missing complex header", 1)
    d, iota = ([table.get(s, 0) for s in range(len(gens))]
               for table in rows.values())
    stray.sort(key=lambda term: term[0])
    C = Complex.of_rows(
        gens, Complex.of_rows(gens, d).rows_mod(ring), ring, name,
        [term[1:] for term in stray if not ring.contains(term[3])])
    iota = LinMap(C, C, "skew", (0, 0), Ideal.zero(), iota)
    return CfkFile(C, IotaData(iota.reduce_to(_MAX)) if rows["iota"] else None)


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
        if not (tokens := raw.split("#", 1)[0].split()):
            continue
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
        args = (tokens[7:], lineno, target._index, target.basis)
        if bidegree is None:
            if not (off := _scan(*args, None)[1]):
                continue
            m, y = off[0][1], target.generator(off[0][0])
            eu, ev = _image_grading(source.basis[s], variance, (0, 0))
            bidegree = (y.gr_u - 2 * m.i - eu, y.gr_v - 2 * m.j - ev)
        rows[s], off = _scan(*args, _image_grading(source.basis[s], variance,
                                                   bidegree))
        if off := [term for term in off if not source.ring.contains(term[1])]:
            raise CfkParseError(
                str(_bidegree_error(src, *off[0], bidegree)), lineno)
    return LinMap(source, target, variance or "eq", bidegree or (0, 0),
                  Ideal.zero(), rows).reduce_to(source.ring)
