"""The pivot-indexed echelon kernel against the list-based one it
replaced (`tests/oracles.py`): on every system the benchmark workloads
build, and on random systems and spans."""

import random
import sys
from pathlib import Path

import pytest

import knotfloer.homology
import knotfloer.morphism
from knotfloer.linalg import Echelon, GF2System, complement_basis, rref_basis
from oracles import ListGF2System, list_complement_basis, list_rref_basis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _oracle_basis(span: Echelon) -> tuple[list[int], list[int]]:
    """An Echelon as the oracle's (rows, pivots), by descending pivot."""
    pivots = sorted(span.rows, reverse=True)
    return [span.rows[p] for p in pivots], pivots


def _assert_same_system(system: GF2System, oracle: ListGF2System) -> None:
    assert system.feasible == oracle.feasible
    assert system.rank == len(system.rows) == oracle.rank
    assert _oracle_basis(system) == (oracle.rows, oracle.pivots)
    assert system.mask == sum(1 << p for p in oracle.pivots)
    if oracle.feasible:
        assert system.particular_solution() == oracle.particular_solution()
        assert system.nullspace_basis() == oracle.nullspace_basis()
        assert system.solution_space() == (oracle.particular_solution(),
                                           oracle.nullspace_basis())


def _assert_same_span(span: Echelon, vectors: list[int]) -> None:
    assert _oracle_basis(span) == list_rref_basis(vectors)
    assert span.mask == sum(1 << p for p in span.rows)


# -- every system of the benchmark workloads --------------------------------

class _Shadow:
    """While installed, every GF2System built gets a ListGF2System fed
    the same equations, copied when it is copied; equations added all or
    none go to a copy of the oracle, kept when they are all consistent.
    Every rref_basis and complement_basis call is kept with its result."""

    def __init__(self, monkeypatch):
        self.oracles: dict[GF2System, ListGF2System] = {}
        self.equations = 0
        self.mismatches: list[str] = []
        self.spans: list[tuple[list[int], Echelon]] = []
        self.complements: list[tuple[list[int], list[int], list[int]]] = []
        init, add, add_all, copy = (
            GF2System.__init__, GF2System.add_equation,
            GF2System.add_equations, GF2System.copy)
        oracles = self.oracles

        def shadow_init(system, width):
            init(system, width)
            oracles[system] = ListGF2System(width)

        def shadow_add(system, row, rhs):
            got = add(system, row, rhs)
            want = oracles[system].add_equation(row, rhs)
            self.equations += 1
            if got != want or len(system.rows) != system.rank:
                self.mismatches.append(f"width {system.width}: {row} = {rhs}")
            return got

        def shadow_add_all(system, equations):
            got = add_all(system, equations)
            low = (1 << system.width) - 1
            trial = oracles[system].copy()
            want = all(trial.add_equation(aug & low, aug >> system.width)
                       for aug in equations)
            if want:
                oracles[system] = trial
            self.equations += len(equations)
            if got != want or len(system.rows) != system.rank:
                self.mismatches.append(f"width {system.width}: {equations}")
            return got

        def shadow_copy(system):
            other = copy(system)
            oracles[other] = oracles[system].copy()
            return other

        monkeypatch.setattr(GF2System, "__init__", shadow_init)
        monkeypatch.setattr(GF2System, "add_equation", shadow_add)
        monkeypatch.setattr(GF2System, "add_equations", shadow_add_all)
        monkeypatch.setattr(GF2System, "copy", shadow_copy)

        def kept_rref(vectors):
            span = rref_basis(vectors)
            self.spans.append((list(vectors), span))
            return span

        def kept_complement(sub, space):
            comp = complement_basis(sub, space)
            self.complements.append((*_oracle_basis(sub), list(space), comp))
            return comp

        for module in (knotfloer.morphism, knotfloer.homology):
            monkeypatch.setattr(module, "rref_basis", kept_rref)
        monkeypatch.setattr(knotfloer.morphism, "complement_basis",
                            kept_complement)


def _run_workload(name: str) -> None:
    """Set-up and one pass of a benchmark workload, in dependency order."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    state = dict(workloads.setup(name))
    for op in sorted(workloads.ops(name), key=lambda op: op.level):
        state[op.name] = op.fn(state)


@pytest.mark.parametrize("workload", ["cable-pipeline", "pair-sweep"])
def test_benchmark_systems_match_list_oracle(workload, monkeypatch):
    shadow = _Shadow(monkeypatch)
    _run_workload(workload)
    monkeypatch.undo()
    assert not shadow.mismatches
    assert len(shadow.oracles) > 100 and shadow.equations > 1000
    for system, oracle in shadow.oracles.items():
        _assert_same_system(system, oracle)
    assert shadow.spans and shadow.complements
    for vectors, span in shadow.spans:
        _assert_same_span(span, vectors)
    for rows, pivots, space, comp in shadow.complements:
        assert comp == list_complement_basis(rows, pivots, space)


# -- random systems and spans ------------------------------------------------

def _random_vector(rng: random.Random, width: int, dense: bool) -> int:
    if dense or width == 0:
        return rng.getrandbits(width) if width else 0
    v = 0
    for _ in range(rng.randint(1, 3)):
        v |= 1 << rng.randrange(width)
    return v


def _random_equations(rng: random.Random, width: int, dense: bool,
                      consistent: bool) -> list[tuple[int, int]]:
    """Rows with right-hand sides, repeats and zero rows among them; a
    consistent system takes its rhs from a hidden solution."""
    hidden = rng.getrandbits(width) if width else 0
    eqs = []
    for _ in range(rng.randint(0, width + 10)):
        pick = rng.random()
        if eqs and pick < 0.1:
            eqs.append(rng.choice(eqs))
            continue
        row = 0 if pick < 0.15 else _random_vector(rng, width, dense)
        rhs = ((row & hidden).bit_count() & 1 if consistent
               else rng.getrandbits(1))
        eqs.append((row, rhs))
    if not consistent and rng.random() < 0.5:
        eqs.insert(rng.randint(0, len(eqs)), (0, 1))
    return eqs


RANDOM_CASES = [(seed, width, dense, consistent)
                for seed, width in enumerate((0, 1, 2, 3, 5, 8, 13, 21, 34,
                                              55, 64, 70))
                for dense in (True, False) for consistent in (True, False)]


@pytest.mark.parametrize("seed,width,dense,consistent", RANDOM_CASES)
def test_random_systems_match_list_oracle(seed, width, dense, consistent):
    rng = random.Random(7000 + 4 * seed + 2 * dense + consistent)
    for _ in range(5):
        system, oracle = GF2System(width), ListGF2System(width)
        for row, rhs in _random_equations(rng, width, dense, consistent):
            assert (system.add_equation(row, rhs)
                    == oracle.add_equation(row, rhs))
            assert system.feasible == oracle.feasible
            assert len(system.rows) == system.rank == oracle.rank
        if consistent:
            assert system.feasible
        _assert_same_system(system, oracle)


@pytest.mark.parametrize("seed,width,dense", [(s, w, d) for s, w, d, c
                                              in RANDOM_CASES if c])
def test_random_spans_match_list_oracle(seed, width, dense):
    rng = random.Random(8000 + 2 * seed + dense)
    for _ in range(5):
        vectors = [_random_vector(rng, width, dense)
                   for _ in range(rng.randint(0, width + 5))]
        vectors += rng.sample(vectors, len(vectors) // 4) + [0]
        span = rref_basis(vectors)
        _assert_same_span(span, vectors)
        assert _oracle_basis(Echelon(span.rows.values())) == _oracle_basis(span)
        space = [_random_vector(rng, width, dense)
                 for _ in range(rng.randint(0, width + 5))]
        rows, pivots = list_rref_basis(vectors)
        assert (complement_basis(span, space)
                == list_complement_basis(rows, pivots, space))
        assert all(span.reduce(v) == 0 for v in vectors)


# -- the contract the benchmark tracer and the greedy rely on ----------------

def test_rows_count_the_rank_after_every_equation():
    rng = random.Random(9000)
    for width in (0, 1, 9, 40):
        system = GF2System(width)
        for row, rhs in _random_equations(rng, width, True, False):
            system.add_equation(row, rhs)
            assert len(system.rows) == system.rank


def test_copy_leaves_the_original_unchanged():
    rng = random.Random(9100)
    for width in (1, 9, 40):
        for _ in range(20):
            system = GF2System(width)
            for row, rhs in _random_equations(rng, width, False, True):
                system.add_equation(row, rhs)
            before = (dict(system.rows), system.mask, system.feasible)
            trial = system.copy()
            for row, rhs in _random_equations(rng, width, True, False):
                trial.add_equation(row, rhs)
            trial.add_equation(0, 1)
            assert not trial.feasible
            assert (dict(system.rows), system.mask, system.feasible) == before


# -- the semi-echelon kernel and its reduced view ----------------------------

def test_constructor_keeps_rows_sharing_a_leading_bit():
    span = Echelon([0b11, 0b10])
    assert span.rank == len(span.rows) == 2
    assert span.reduce(0b01) == 0
    assert dict(span.rows) == {1: 0b10, 0: 0b01}


@pytest.mark.parametrize("seed,width,dense,consistent", RANDOM_CASES)
def test_reduced_rows_read_between_equations(seed, width, dense, consistent):
    rng = random.Random(9200 + 4 * seed + 2 * dense + consistent)
    system, oracle = GF2System(width), ListGF2System(width)
    for row, rhs in _random_equations(rng, width, dense, consistent):
        system.add_equation(row, rhs)
        oracle.add_equation(row, rhs)
        if rng.random() < 0.3:
            _assert_same_system(system, oracle)
    _assert_same_system(system, oracle)


def test_copy_then_insert_leaves_the_reduced_view():
    rng = random.Random(9300)
    for width in (1, 9, 40):
        for k in range(20):
            system, oracle = GF2System(width), ListGF2System(width)
            for row, rhs in _random_equations(rng, width, False, True):
                system.add_equation(row, rhs)
                oracle.add_equation(row, rhs)
            if k % 2:  # the original's reduced view is already built
                _assert_same_system(system, oracle)
            trial, trial_oracle = system.copy(), oracle.copy()
            for row, rhs in _random_equations(rng, width, True, True):
                trial.add_equation(row, rhs)
                trial_oracle.add_equation(row, rhs)
            _assert_same_system(trial, trial_oracle)
            _assert_same_system(system, oracle)
