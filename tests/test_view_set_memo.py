"""The memoised view-set descent against the unmemoised one.

`consistency.iter_view_sets` searches each process's extensions once per
distinct (process, forced rows, SCO summary), or, under the strong model,
per distinct (process, forced rows with the summary folded in as edges),
and replays the stored list at every later node with either key.  The
reference here is the descent as it ran before the memo and the fold: one
veto engine search (`conftest.reference_extensions`) at every node, under
the full SCO veto list built from every fixed order, and each causal
contribution tested against each fixed order in turn.  Both must yield the
same leaves, in the same order, the memoised one with no more placements.
A leaf is compared by its views: the order rows are a function of them.
"""

import pytest

from causalrnr import consistency, oracle
from causalrnr.consistency import CAUSAL, STRONG_CAUSAL, iter_view_sets
from causalrnr.errors import BudgetExceeded
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.model import Operation, Program
from causalrnr.race_record import minimal_race_record
from causalrnr.records import Record
from causalrnr.search import NodeBudget, iter_extensions
from causalrnr.view_record import minimal_view_record

from conftest import reference_view_sets, small_generated

MODELS = (STRONG_CAUSAL, CAUSAL)
FIXTURES = small_generated()


def _views(leaf):
    return [(v.process, v.sequence) for v in leaf.views]


def _leaves(descent, *args, **kwargs):
    return [_views(leaf) for leaf in descent(*args, **kwargs)]


def _records(execution, views):
    """The empty, minimal view and minimal race records, and the minimal
    view record with one edge dropped."""
    program = execution.program
    view = minimal_view_record(views, execution)
    records = [
        Record.of({p: frozenset() for p in program.processes}),
        view,
        minimal_race_record(views, execution),
    ]
    if view.size():
        records.append(view.drop(*next(view.all_edges())))
    return records


def _queries():
    """(program, base) of the oracle's queries, over each record's
    bases."""
    out = []
    for execution, views in FIXTURES:
        program = execution.program
        for record in _records(execution, views):
            base = oracle._base_rows(program, record)
            if base is not None:
                out.append((program, base))
    return out


@pytest.mark.parametrize("model", MODELS)
def test_same_leaves_in_the_same_order_with_no_more_placements(model):
    fewer = 0
    for program, base in _queries():
        memo, plain = NodeBudget(None), NodeBudget(None)
        found = _leaves(iter_view_sets, program, model, base, memo)
        expected = _leaves(reference_view_sets, program, model, base, plain)
        assert found == expected
        assert memo.explored <= plain.explored
        fewer += memo.explored < plain.explored
    assert fewer


def _writes(**ops):
    """A program from process -> (kind, id) pairs, all on variable x."""
    return Program.of({
        int(p[1:]): [Operation(kind, int(p[1:]), "x", op) for kind, op in listed]
        for p, listed in ops.items()
    })


def test_summaries_that_fold_to_the_same_rows_share_a_search(monkeypatch):
    """Process 1 writes a, process 2 has no operation and process 3 writes
    c.  Process 3 meets three (forced rows, summary) keys: no edge and no
    later write, below the views 1: a c and 2: a c; no edge and a after c,
    below 1: a c and 2: c a; and the SCO edge c -> a of 1: c a, with a
    after c, below 1: c a and 2: c a.  The last two fold to the same rows,
    c before a, so the third node replays the second's search."""
    program = _writes(p1=[("w", "a")], p2=[], p3=[("w", "c")])
    empty = Record.of({p: frozenset() for p in program.processes})
    base = oracle._base_rows(program, empty)
    searched = []
    search = consistency.iter_extensions

    def recording(universe, rows, budget):
        searched.append(tuple(rows))
        return search(universe, rows, budget)

    monkeypatch.setattr(consistency, "iter_extensions", recording)
    budget = NodeBudget(None)
    found = _leaves(iter_view_sets, program, STRONG_CAUSAL, base, budget)
    reference = NodeBudget(None)
    assert found == _leaves(reference_view_sets, program, STRONG_CAUSAL, base, reference)
    assert len(found) == 4
    a, c = program.index["a"], program.index["c"]
    unordered, c_first = (0, 0), tuple(1 << a if k == c else 0 for k in range(2))
    # every universe is {a, c}: the searches are of process 1, of process 2
    # below 1: a c, of process 3 at its first two nodes, and of process 2
    # below 1: c a; process 3's third node searches nothing
    assert searched == [unordered, unordered, unordered, c_first, c_first]
    assert budget.explored < reference.explored


def test_a_fold_that_closes_a_cycle_with_the_base_places_nothing():
    """Process 1 reads and its record orders process 2's write b before
    process 3's write w, while process 2's record orders w before b.  Every
    view of process 1 puts w in b's SCO summary, so process 2's fold adds
    b -> w, which closes a cycle with its base: no set, and no placement
    beyond process 1's own search.  The veto engine places w first and
    only then finds b vetoed."""
    program = _writes(p1=[("r", "r")], p2=[("w", "b")], p3=[("w", "w")])
    record = Record.of({1: {("b", "w")}, 2: {("w", "b")}, 3: set()})
    base = oracle._base_rows(program, record)
    budget = NodeBudget(None)
    assert list(iter_view_sets(program, STRONG_CAUSAL, base, budget)) == []
    alone = NodeBudget(None)
    first = list(iter_extensions(program.process_index(1).universe_mask, base[1], alone))
    assert len(first) == 3
    assert budget.explored == alone.explored
    reference = NodeBudget(None)
    assert list(reference_view_sets(program, STRONG_CAUSAL, base, reference)) == []
    assert reference.explored == alone.explored + len(first)
    assert list(oracle.enumerate_certifying(program, record, STRONG_CAUSAL)) == []


def test_forced_rows_that_close_a_cycle_with_the_base_place_nothing(monkeypatch):
    """Process 1 writes a, process 2 reads r and its record orders a
    before process 3's write w.  The view 1: w a gives SCO w -> a, which
    process 2's node takes as forced rows: with its base they close a
    cycle, so that node searches nothing and yields no set.  The other
    view, 1: a w, forces nothing, and its node is searched as usual."""
    program = Program.of({
        1: [Operation("w", 1, "x", "a")],
        2: [Operation("r", 2, "x", "r")],
        3: [Operation("w", 3, "x", "w")],
    })
    record = Record.of({1: set(), 2: {("a", "w")}, 3: set()})
    base = oracle._base_rows(program, record)
    outcomes, searched = [], []
    check, search = consistency.cyclic, consistency.iter_extensions

    def checking(rows):
        outcomes.append(check(rows))
        return outcomes[-1]

    def searching(universe, rows, budget):
        searched.append((universe, tuple(rows)))
        return search(universe, rows, budget)

    monkeypatch.setattr(consistency, "cyclic", checking)
    monkeypatch.setattr(consistency, "iter_extensions", searching)
    budget = NodeBudget(None)
    found = _leaves(iter_view_sets, program, STRONG_CAUSAL, base, budget)
    assert found == _leaves(reference_view_sets, program, STRONG_CAUSAL, base, NodeBudget(None))
    assert found and all(views[0][1] == ("a", "w") for views in found)
    assert outcomes.count(True) == 1 and len(searched) == outcomes.count(False)
    # every placement is one of the searches run on an acyclic closure
    alone = NodeBudget(None)
    for universe, rows in searched:
        list(search(universe, rows, alone))
    assert budget.explored == alone.explored


def test_cached_contributions_are_filtered_at_every_node(monkeypatch):
    """Under the causal model with the reads not given, a stored view's WO
    contribution is checked again under other fixed views, and rejected
    under some of them.  With two processes, the intersection that each
    check of the second process's views tests against is the one fixed
    view's order, so two intersections checked against one contribution
    are two nodes."""
    calls = []
    inside = consistency._inside

    def recording(contribution, meet):
        result = inside(contribution, meet)
        calls.append((contribution, meet, result))
        return result

    monkeypatch.setattr(consistency, "_inside", recording)
    execution, _ = gen_strong_causal(GenParams(0, 2, 3, 2, 0.5))
    program = execution.program
    assert len(program.processes) == 2
    empty = Record.of({p: frozenset() for p in program.processes})
    list(oracle.enumerate_certifying(program, empty, CAUSAL))
    fixed: dict[int, set] = {}
    rejected: dict[int, bool] = {}
    for contribution, meet, result in calls:
        fixed.setdefault(id(contribution), set()).add(meet)
        rejected[id(contribution)] = rejected.get(id(contribution), False) or not result
    reused = [key for key, meets in fixed.items() if len(meets) > 1]
    assert reused
    assert any(rejected[key] for key in reused)


def _empty_query():
    """The first fixture with three processes and five operations, as a
    causal empty-record query: its program, bases and placements."""
    execution = next(
        e for e, _ in FIXTURES
        if len(e.program.processes) == 3 and len(e.program.all_ops) == 5
    )
    program = execution.program
    base = oracle._base_rows(program, Record.of({p: frozenset() for p in program.processes}))
    budget = NodeBudget(None)
    for _ in iter_view_sets(program, CAUSAL, base, budget):
        pass
    return program, base, budget.explored


def test_exhausted_budget_then_a_larger_one_gives_the_reference():
    program, base, placements = _empty_query()
    expected = _leaves(reference_view_sets, program, CAUSAL, base, NodeBudget(None))
    for limit in (1, placements // 3, placements // 2, placements - 1):
        budget = NodeBudget(limit)
        leaves = iter_view_sets(program, CAUSAL, base, budget)
        prefix = []
        with pytest.raises(BudgetExceeded):
            for leaf in leaves:
                prefix.append(_views(leaf))
        assert prefix == expected[: len(prefix)]
        again = _leaves(
            iter_view_sets, program, CAUSAL, base, NodeBudget(limit * 10 + placements)
        )
        assert again == expected


def test_an_early_exit_leaves_later_queries_unaffected():
    checked = 0
    for execution, views in FIXTURES[:12]:
        program = execution.program
        empty = Record.of({p: frozenset() for p in program.processes})
        verdict = oracle.is_good_view_record(views, program, empty, CAUSAL)
        if verdict.good:
            continue
        checked += 1
        base = oracle._base_rows(program, empty)
        expected = _leaves(reference_view_sets, program, CAUSAL, base, NodeBudget(None))
        # a descent abandoned after its first leaf, then a fresh one
        first = iter_view_sets(program, CAUSAL, base, NodeBudget(None))
        next(first)
        first.close()
        found = _leaves(iter_view_sets, program, CAUSAL, base, NodeBudget(None))
        assert found == expected
        assert [c.sort_key() for c in oracle.enumerate_certifying(program, empty, CAUSAL)] == [
            tuple(seq for _, seq in views) for views in expected
        ]
    assert checked
