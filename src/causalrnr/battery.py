"""The full invariant battery run by the fuzzer on one fixture.

One call exercises, against the brute-force oracle, everything the record
constructions promise: the offline view record is good and every edge of
it is necessary; the online record has exactly its closed form, contains
the offline record, and is good; the race record is good and every edge
necessary both by witness construction and by the oracle's verdict; and the
structural observations relating the intermediate relations hold.

Every query is a strong-model one, decided on the SCO fixpoint with no
enumeration cap, so fixtures of any size run.  The "exactly one
certifying replay" check walks `oracle.certifying_replays`, the same
fixpoint as the goodness verdicts: the two are two uses of one
fixpoint, which the tests cross-check against the view-set descent
(`oracle.enumerate_certifying`) up to 10 operations.  A race witness
reverses its edge when its view places the edge's target first, the
two sharing a variable: one position and one mask test.

The stages share per-fixture state through the entry points users call.
The fixture's view set keeps its order rows (`ViewSet.order_rows`): the
strong-causality check builds them, and every later stage reads them.
`view_record.guaranteed_rows` gives the strong causal order and each
process's guaranteed rows, which the view and online stages test
against.  One `oracle.Goodness` answers the goodness
verdicts: the view and race records, each also with every edge
dropped in turn, and the online record.  It keeps each record's
verdict, and the dropped-edge verdicts go through
`Goodness.without_edge`, which reads the kept verdict and, on a good
record that the original views certify, places one replay with the
edge reversed instead of searching for a difference.  One
`RaceAnalysis` serves the race record, its witnesses and the
observations, which are mask tests on its rows: the strong write order,
the obligation graphs and the flip cascades' levels, with the collision
test asked only for races whose first cascade level lies in the strong
write order.  The one-shot `oracle.is_good_view_record`,
`oracle.is_good_race_record` and `oracle.race_witness` take the same
paths with a fresh state.

The stages also share replays.  The fixture's `Goodness` places every
goodness and dropped-edge verdict's replay and every race witness
(`Goodness.race_witness`), and keeps each placement under its bases and
pairs, so each distinct replay is placed once per fixture.  A
race-record dropped-edge replay equals a view-record one when the two
reversed records close to the same bases; a race witness equals its
edge's dropped-edge replay when the candidate race record closes to the
race record's bases; and the race record's verdict equals an earlier
verdict when its bases and adjacent pairs do (with one variable, the
data-race pairs are the views' pairs).  The memo is exact: a placement
is a pure function of the program, the closed bases and the pairs, and
its result, a frozen view set and a count, is handed out unchanged, so
every verdict, counterexample, witness and `Verdict.enumerated` is the
one an unshared run computes.  It lives as long as the fixture's
`Goodness`, so no result outlives the run.  `BatteryStats.replays_placed`
and `replays_shared` read `Goodness.placed` and `Goodness.shared`; the
completion of program order (`oracle.extend_to_views`) places outside
the memo and is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from causalrnr import kernels, oracle
from causalrnr.consistency import STRONG_CAUSAL, check_causal, check_strong_causal, sco_rows
from causalrnr.model import Execution, ViewSet, data_race_order, derive_writes_to
from causalrnr.race_record import RaceAnalysis
from causalrnr.relations import Relation
from causalrnr.view_record import guaranteed_rows, minimal_view_record, online_record_from_views


class BatteryFailure(AssertionError):
    def __init__(self, stage: str, detail: str):
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage
        self.detail = detail


@dataclass
class BatteryStats:
    view_edges_checked: int = 0
    race_edges_checked: int = 0
    certifying_seen: int = 0
    # the fixture's `Goodness.placed` and `Goodness.shared`: replays
    # placed, and placements answered with an earlier one's result
    replays_placed: int = 0
    replays_shared: int = 0
    stages: list[str] = field(default_factory=list)


def _fail(stage: str, detail: str) -> None:
    raise BatteryFailure(stage, detail)


def run_battery(execution: Execution, views: ViewSet, *, max_ops: int | None = None) -> BatteryStats:
    """Runs every stage on the fixture, raising `BatteryFailure` at the
    first broken invariant.  Every query is a strong-model one, decided
    on the fixpoint with no enumeration cap, so `max_ops` is accepted
    for existing callers but limits nothing."""
    stats = BatteryStats()

    # the fixture itself must be consistent
    program = execution.program
    bad = check_strong_causal(views, execution)
    if bad is not None:
        _fail("fixture", f"not strongly causal: {bad}")
    if check_causal(views, execution) is not None:
        _fail("fixture", "strongly causal fixture fails the causal check")
    stats.stages.append("fixture")

    goodness = oracle.Goodness(views, program)
    sco, guaranteed = guaranteed_rows(views, program)
    offline = _view_record_stage(execution, views, goodness, sco, guaranteed, stats)
    _online_record_stage(execution, views, goodness, guaranteed, offline, stats)
    analysis = RaceAnalysis(views, program)
    _race_record_stage(analysis, goodness, stats)
    _observation_stage(execution, views, analysis, sco, stats)
    stats.replays_placed = goodness.placed
    stats.replays_shared = goodness.shared
    return stats


def _view_record_stage(execution, views, goodness, sco, guaranteed, stats):
    """Returns the offline record, which the online stage compares with."""
    program = execution.program
    record = minimal_view_record(views, execution)

    # goodness, and the replay-preservation assertions on every certifying set
    seen = 0
    for candidate in oracle.certifying_replays(program, record):
        seen += 1
        orders = dict(zip(candidate.processes(), candidate.order_rows(program)))
        if any(s & ~r for s, r in zip(sco, sco_rows(program, orders.items()))):
            _fail("view-record", "a certifying replay lost a strong causal ordering")
        for view in views.views:
            _, _, kept = guaranteed[view.process]
            if any(k & ~r for k, r in zip(kept, orders[view.process])):
                _fail(
                    "view-record",
                    f"a certifying replay reversed an indirectly enforced pair "
                    f"of process {view.process}",
                )
        if candidate.sort_key() != views.sort_key():
            _fail("view-record", "offline record admits a differing replay")
    if seen != 1:
        _fail("view-record", f"expected exactly one certifying replay, saw {seen}")
    stats.certifying_seen += seen
    verdict = goodness.verdict(record, "views", STRONG_CAUSAL)
    if not verdict.good:
        _fail("view-record", "the oracle finds a differing replay of the offline record")
    if not verdict.original_certifies:
        _fail("view-record", "original views do not certify their own record")

    # necessity of every edge
    for i, edge in record.all_edges():
        verdict = goodness.without_edge(record, i, edge, "views", STRONG_CAUSAL)
        if verdict.good:
            _fail("view-record", f"record without {edge} (process {i}) is still good")
        pos = verdict.counterexample[i].positions
        a, b = edge
        if pos[a] < pos[b]:
            _fail(
                "view-record",
                f"counterexample for dropped edge {edge} does not flip it",
            )
        witness = oracle.view_witness(views, execution, record, i, edge)
        if witness.sort_key() == views.sort_key():
            _fail("view-record", "necessity witness equals the original views")
        stats.view_edges_checked += 1
    stats.stages.append("view-record")
    return record


def _online_record_stage(execution, views, goodness, guaranteed, offline, stats):
    program = execution.program
    index = program.index
    online = online_record_from_views(views, execution)
    for view in views.views:
        i = view.process
        po, foreign_sco, indirect = guaranteed[i]
        expected = frozenset(
            (a, b)
            for a, b in view.reduction_pairs()
            if not (po[index[a]] | foreign_sco[index[a]]) >> index[b] & 1
        )
        if online.edges(i) != expected:
            _fail(
                "online-record",
                f"online record of process {i} is {sorted(online.edges(i))}, "
                f"expected {sorted(expected)}",
            )
        if not offline.edges(i) <= online.edges(i):
            _fail("online-record", f"online record of process {i} misses offline edges")
        extra = online.edges(i) - offline.edges(i)
        if any(not indirect[index[a]] >> index[b] & 1 for a, b in extra):
            _fail(
                "online-record",
                f"online-only edges of process {i} are not all indirectly enforced",
            )
    verdict = goodness.verdict(online, "views", STRONG_CAUSAL)
    if not verdict.good:
        _fail("online-record", "online record is not good")
    stats.stages.append("online-record")


def _race_record_stage(analysis, goodness, stats):
    program = analysis.program
    index = program.index
    masks = program.variable_masks
    record = analysis.record()
    verdict = goodness.verdict(record, "dro", STRONG_CAUSAL)
    if not verdict.good:
        dros = {
            i: sorted(data_race_order(verdict.counterexample[i], program).pairs)
            for i in program.processes
        }
        _fail("race-record", f"race record admits a race-differing replay: {dros}")
    if not verdict.original_certifies:
        _fail("race-record", "original views do not certify their own record")

    for i, edge in record.all_edges():
        verdict = goodness.without_edge(record, i, edge, "dro", STRONG_CAUSAL)
        if verdict.good:
            _fail("race-record", f"record without {edge} (process {i}) is still good")
        # the witness's data-race order holds (b, a): b, a share a variable
        # and its view places b first
        pos = goodness.race_witness(analysis, i, edge)[i].positions
        a, b = edge
        if not (masks[index[a]] >> index[b] & 1 and pos[b] < pos[a]):
            _fail("race-record", f"witness for {edge} does not reverse the race")
        stats.race_edges_checked += 1
    stats.stages.append("race-record")


def _observation_stage(execution, views, analysis, sco, stats):
    program = execution.program
    ids = program.all_ops
    writes = program.writes_mask
    swo = analysis.swo_rows()

    if any(s & ~c for s, c in zip(swo, sco)):
        _fail("observations", "strong write order escapes strong causal order")
    for pair, level in analysis.strong_write_order().level:
        if level < 1:
            _fail("observations", f"edge {pair} has level {level}")

    for view in views.views:
        i = view.process
        obligation = analysis.obligation_rows(i)
        if any(s & ~o for s, o in zip(swo, obligation)):
            _fail("observations", f"obligation graph of {i} misses strong write order")
        # membership equivalence for pairs ending at this process's writes
        own = program.process_index(i).own_writes_mask
        for a in program.write_positions:
            differ = (obligation[a] ^ swo[a]) & own & ~(1 << a)
            if differ:
                b = (differ & -differ).bit_length() - 1
                _fail(
                    "observations",
                    f"obligation/strong-write-order disagree on ({ids[a]}, {ids[b]})",
                )

    # cascade levels are monotone and stay inside strong-write-order reach
    reach = kernels.closure_rows(swo)
    for view in views.views:
        i = view.process
        for o1, later in enumerate(analysis.dro_rows(i)):
            later &= writes
            while later:
                low = later & -later
                later ^= low
                first, second = ids[o1], ids[low.bit_length() - 1]
                levels = analysis.cascade_levels(i, first, second)
                for earlier, after in zip(levels, levels[1:]):
                    if any(e & ~a for e, a in zip(earlier, after)):
                        _fail("observations", "cascade levels are not monotone")
                if writes >> o1 & 1 and levels:
                    for w3, row in enumerate(levels[-1]):
                        stray = row & ~reach[o1] & ~(1 << o1)
                        if stray:
                            w4 = (stray & -stray).bit_length() - 1
                            _fail(
                                "observations",
                                f"cascade pair ({ids[w3]}, {ids[w4]}) not "
                                f"strong-write-order reachable from {first}",
                            )
                if levels and not any(c & ~s for c, s in zip(levels[0], swo)):
                    if analysis.collides(i, first, second):
                        _fail(
                            "observations",
                            f"pair ({first}, {second}) marked redundant despite a "
                            f"forced-order cascade",
                        )

    # completion smoke: extending program order alone must succeed
    partials = {
        i: Relation(program.universe_of(i), program.process_index(i).po_pairs)
        for i in program.processes
    }
    completed = oracle.extend_to_views(partials, program)
    derived = derive_writes_to(completed, program)
    if check_strong_causal(completed, derived) is not None:
        _fail("observations", "completion of program order is not strongly causal")
    stats.stages.append("observations")
