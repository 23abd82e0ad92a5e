"""Hand-forged traces for the negative checker fixtures.

The base trace is consistent: server 0's genesis block emits one echo and
server 1's chain consumes it. Each forgery perturbs exactly one thing so the
corresponding checker must flag exactly one violation. The convergence
forgeries at the end pin the pair semantics and the report order, and each
breaks one of the two conditions under which ``check_convergence`` decides a
pair per snapshot (C1: one distinct-preds set per ref across the correct
servers; C2: every snapshot holds the preds of its refs).
``forged_interpreted_only_pred`` pins that an interpreted block a server
never inserted is still the origin of what it emitted, and
``forged_failure_order`` the order of one server's violations.
``forged_interpret_only_server`` pins two edge cases of the trace facts
themselves: a correct server that interpreted but never inserted is a
convergence target, and a repeated INTERPRET entry overwrites the earlier one.

``seeded_mutants`` and ``seeded_body_mutants`` derive traces from simulated
runs by one such perturbation each, of an INSERT event or of an INTERPRET
entry, for the differential test against the reference checkers.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

from dagbft import trace
from dagbft.brb import encode_payload
from dagbft.protocol import Label, message
from dagbft.simnet import BehaviorSpec, RequestInjection, Scenario, run

from .scenarios import adversarial_scenario, random_scenario

X, Y, Z, W, V = "aa" * 32, "bb" * 32, "cc" * 32, "dd" * 32, "ee" * 32


def msg_hex(sender: int, receiver: int, value: int = 42, kind: int = 1) -> str:
    return message(sender, receiver, encode_payload(kind, value)).hex()


def forged_base() -> tuple[Scenario, list[dict]]:
    scenario = Scenario(
        n=4,
        f=1,
        seed=0,
        max_steps=3,
        requests=(RequestInjection(0, 0, Label(0, 1), 42),),
    )
    events = [
        trace.event(0, "INSERT", server=1, ref=X, builder=0, seqno=0, preds=[], requests=[[0, 1, "2a" * 8]]),
        trace.event(0, "INSERT", server=1, ref=Y, builder=1, seqno=0, preds=[], requests=[]),
        trace.event(
            0,
            "INTERPRET",
            server=1,
            ref=X,
            builder=0,
            labels=[
                {
                    "label": [0, 1],
                    "fed": [],
                    "emitted": [msg_hex(0, r) for r in range(4)],
                    "state": "11" * 32,
                    "skipped": 0,
                }
            ],
        ),
        trace.event(0, "INTERPRET", server=1, ref=Y, builder=1, labels=[]),
        trace.event(1, "INSERT", server=1, ref=Z, builder=1, seqno=1, preds=[Y, X], requests=[]),
        trace.event(
            1,
            "INTERPRET",
            server=1,
            ref=Z,
            builder=1,
            labels=[
                {
                    "label": [0, 1],
                    "fed": [msg_hex(0, 1)],
                    "emitted": [msg_hex(1, r) for r in range(4)],
                    "state": "22" * 32,
                    "skipped": 0,
                }
            ],
        ),
    ]
    return scenario, events


def forged_duplicate() -> tuple[Scenario, list[dict]]:
    """Server 1 references block X twice along its chain: the echo from X is
    fed a second time (one no-duplication violation)."""
    scenario, events = forged_base()
    events.append(
        trace.event(2, "INSERT", server=1, ref=W, builder=1, seqno=2, preds=[Z, X], requests=[])
    )
    events.append(
        trace.event(
            2,
            "INTERPRET",
            server=1,
            ref=W,
            builder=1,
            labels=[
                {
                    "label": [0, 1],
                    "fed": [msg_hex(0, 1), msg_hex(1, 1)],
                    "emitted": [],
                    "state": "33" * 32,
                    "skipped": 0,
                }
            ],
        )
    )
    return scenario, events


def forged_unsigned_origin() -> tuple[Scenario, list[dict]]:
    """An in-buffer claims a message from sender 2 although no referenced
    block of builder 2 emitted it (one authenticity violation)."""
    scenario, events = forged_base()
    events.append(
        trace.event(2, "INSERT", server=1, ref=W, builder=1, seqno=2, preds=[Z], requests=[])
    )
    events.append(
        trace.event(
            2,
            "INTERPRET",
            server=1,
            ref=W,
            builder=1,
            labels=[
                {
                    "label": [0, 1],
                    "fed": [msg_hex(1, 1), msg_hex(2, 1)],
                    "emitted": [],
                    "state": "33" * 32,
                    "skipped": 0,
                }
            ],
        )
    )
    return scenario, events


def forged_byzantine_refeed() -> tuple[Scenario, list[dict]]:
    """Byzantine server 3's echo reaches server 1 through block V twice: both
    Z and W reference V, and both feed the echo (one no-duplication
    violation that names V as the repeated origin block)."""
    scenario = Scenario(
        n=4,
        f=1,
        seed=0,
        max_steps=3,
        byzantine=((3, BehaviorSpec("SILENT")),),
        requests=(RequestInjection(0, 0, Label(0, 1), 42),),
    )
    echo = {"label": [0, 1], "fed": [msg_hex(3, 1)], "emitted": [], "state": "44" * 32, "skipped": 0}
    events = [
        trace.event(0, "INSERT", server=1, ref=V, builder=3, seqno=0, preds=[], requests=[]),
        trace.event(
            0,
            "INTERPRET",
            server=1,
            ref=V,
            builder=3,
            labels=[
                {
                    "label": [0, 1],
                    "fed": [],
                    "emitted": [msg_hex(3, r) for r in range(4)],
                    "state": "33" * 32,
                    "skipped": 0,
                }
            ],
        ),
        trace.event(1, "INSERT", server=1, ref=Z, builder=1, seqno=0, preds=[V], requests=[]),
        trace.event(1, "INTERPRET", server=1, ref=Z, builder=1, labels=[echo]),
        trace.event(2, "INSERT", server=1, ref=W, builder=1, seqno=1, preds=[Z, V], requests=[]),
        trace.event(2, "INTERPRET", server=1, ref=W, builder=1, labels=[echo]),
    ]
    return scenario, events


def forged_interpreted_only_pred() -> tuple[Scenario, list[dict]]:
    """:func:`forged_byzantine_refeed` with block V interpreted at server 1
    but never inserted there: V still vouches for what it emitted, so its
    echo fed by both Z and W is one no-duplication violation naming V."""
    scenario, events = forged_byzantine_refeed()
    return scenario, events[1:]


def forged_fed_to_uninserted_block() -> tuple[Scenario, list[dict]]:
    """:func:`forged_base` with server 1 interpreting block V, which it never
    inserted, as feeding it server 0's echo: V lists no preds, so no block
    vouches for the message, one authenticity violation."""
    scenario, events = forged_base()
    entry = {"label": [0, 1], "fed": [msg_hex(0, 1)], "emitted": [], "state": "33" * 32, "skipped": 0}
    events.append(trace.event(2, "INTERPRET", server=1, ref=V, builder=1, labels=[entry]))
    return scenario, events


def forged_failure_order() -> tuple[Scenario, list[dict]]:
    """Failing checks at server 1 whose report order neither their refs'
    text nor a message's first place in a buffer gives. X's echoes to
    servers 1 and 2 are missing from blocks B (by 2, inserted first), Z and
    A (by 1; A is inserted last but sorts first as text): edge order puts
    Z's and A's misses of X's second echo before B's miss of its third.
    W misses Z's echo to 1 and feeds three messages that no pred of it
    emitted, the first of them twice: three authenticity violations in fed
    order, and one no-duplication violation for the repeat."""
    scenario, events = forged_base()
    b, a = "11" * 32, "22" * 32
    unsigned = [msg_hex(2, 1), msg_hex(3, 1), msg_hex(2, 1)]
    entry = {"label": [0, 1], "fed": unsigned, "emitted": [], "state": "33" * 32, "skipped": 0}
    events[5] = dict(events[5], labels=[dict(events[5]["labels"][0], fed=[])])  # Z feeds nothing
    events[4:4] = [_insert(1, 1, b, 2, [X])]
    events += [
        _insert(2, 1, a, 1, [X]),
        _insert(2, 1, W, 1, [Z]),
        trace.event(2, "INTERPRET", server=1, ref=W, builder=1, labels=[entry]),
    ]
    return scenario, events


def forged_interpret_only_server() -> tuple[Scenario, list[dict]]:
    """Correct server 2 interprets block X but inserts nothing, and server 1
    interprets X a second time with server 2's state digest. Server 2 is a
    convergence target with an empty DAG, so every union holding one of
    server 1's snapshots fails there (12 violations of 32 checks); agreement
    passes, since a server's last entry for a (ref, label) counts."""
    scenario, events = forged_base()
    scenario = replace(scenario, snapshot_steps=(0, 1))
    entry = dict(events[2]["labels"][0], state="55" * 32)
    for server in (2, 1):
        events.append(trace.event(2, "INTERPRET", server=server, ref=X, builder=0, labels=[entry]))
    return scenario, events


def _insert(step: int, server: int, ref: str, builder: int, preds: list[str]) -> dict:
    return trace.event(
        step, "INSERT", server=server, ref=ref, builder=builder, seqno=0, preds=preds, requests=[]
    )


def forged_cross_edge() -> tuple[Scenario, list[dict]]:
    """Server 0's snapshot holds X, server 2's holds Y, and neither fails on
    its own; but server 1's final DAG has the edge X -> Y, which the union of
    the two snapshots lacks (two convergence violations, one per ordered
    pair)."""
    scenario = Scenario(n=4, f=1, seed=0, max_steps=3, snapshot_steps=(1,))
    events = [
        _insert(0, 0, X, 0, []),
        _insert(0, 2, Y, 2, []),
        _insert(2, 0, Y, 2, []),
        _insert(2, 2, X, 0, []),
        _insert(2, 1, X, 0, []),
        _insert(2, 1, Y, 2, [X]),
    ]
    return scenario, events


def forged_partitioned() -> tuple[Scenario, list[dict]]:
    """Server 0 never receives server 1's block Y, and server 1 records Y's
    edge from X before it holds X: unions that hold Y fail at server 0, and
    unions that hold X and Y without that edge fail at server 1 (several
    convergence violations, reported in pair order s1, s2, t1, t2, target)."""
    scenario = Scenario(n=4, f=1, seed=0, max_steps=4, snapshot_steps=(1, 2))
    events = [
        _insert(0, 0, X, 0, []),
        _insert(0, 1, Y, 1, [X]),
        _insert(2, 1, X, 0, []),
    ]
    return scenario, events


def forged_conflicting_preds() -> tuple[Scenario, list[dict]]:
    """Server 1 records block Y without its pred X, which servers 0 and 2
    record (C1 fails): unions that hold a snapshot with the edge X -> Y fail
    at server 1, and server 1's snapshot alone fails at servers 0 and 2."""
    scenario = Scenario(n=4, f=1, seed=0, max_steps=3, snapshot_steps=(1,))
    events = [
        _insert(0, 0, X, 0, []),
        _insert(0, 0, Y, 1, [X]),
        _insert(0, 1, X, 0, []),
        _insert(0, 1, Y, 1, []),
        _insert(0, 2, X, 0, []),
        _insert(0, 2, Y, 1, [X]),
    ]
    return scenario, events


def forged_unclosed_snapshot() -> tuple[Scenario, list[dict]]:
    """Server 0 inserts Y at a step before Y's pred X (C2 fails): its
    snapshot {Y} and server 2's snapshot {X} each pass, but their union lacks
    the edge X -> Y that every final DAG has."""
    scenario = Scenario(n=4, f=1, seed=0, max_steps=3, snapshot_steps=(1,))
    events = [
        _insert(0, 0, Y, 1, [X]),
        _insert(0, 1, X, 0, []),
        _insert(0, 1, Y, 1, [X]),
        _insert(0, 2, X, 0, []),
        _insert(2, 0, X, 0, []),
        _insert(2, 2, Y, 1, [X]),
    ]
    return scenario, events


def _mutate(scenario: Scenario, events: list[dict], kind: str, rng: Random) -> list[dict]:
    """A copy of ``events`` with one INSERT of a correct server changed:
    ``drop`` removes one pred, ``add`` adds one, ``early`` moves the INSERT
    to the first snapshot step, before the INSERT of one of its preds."""
    correct = set(scenario.correct_servers())
    first: dict[tuple[int, str], int] = {}  # (server, ref) -> index of its first INSERT
    for i, ev in enumerate(events):
        if ev["kind"] == "INSERT" and ev["server"] in correct:
            first.setdefault((ev["server"], ev["ref"]), i)
    cut = min(scenario.snapshot_steps)
    candidates = []
    for (server, ref), i in first.items():
        preds = events[i]["preds"]
        if kind == "early":
            if any(events[first[server, p]]["step"] > cut for p in preds if (server, p) in first):
                candidates.append(i)
        elif preds or kind == "add":
            candidates.append(i)
    i = rng.choice(candidates)
    ev = events[i]
    if kind == "drop":
        victim = rng.choice(ev["preds"])
        changed = dict(ev, preds=[p for p in ev["preds"] if p != victim])
    elif kind == "add":
        extra = [r for (s, r) in first if s == ev["server"] and r != ev["ref"] and r not in ev["preds"]]
        changed = dict(ev, preds=ev["preds"] + [rng.choice(extra)])
    else:
        changed = dict(ev, step=cut)
    return events[:i] + [changed] + events[i + 1 :]


def seeded_mutants() -> list[tuple[str, Scenario, list[dict]]]:
    """Forty traces: the runs of ``random_scenario`` and
    ``adversarial_scenario`` 0-19 (n=4 and n=7 alternately), each with one
    INSERT perturbed by ``_mutate``, the kinds taken in turn."""
    kinds = ("drop", "add", "early")
    mutants = []
    for name, make in (("random", random_scenario), ("adversarial", adversarial_scenario)):
        for index in range(20):
            scenario = make(index)
            kind = kinds[len(mutants) % len(kinds)]
            events = _mutate(scenario, run(scenario).events, kind, Random(f"{name}-{index}"))
            mutants.append((f"{name} {index} {kind}", scenario, events))
    return mutants


# edit -> (whether an INTERPRET entry admits it, the edited entry)
_BODY_EDITS = {
    "drop fed": (lambda a: a["fed"], lambda a, rng: dict(a, fed=_without(a["fed"], rng))),
    "duplicate fed": (lambda a: a["fed"], lambda a, rng: dict(a, fed=a["fed"] + [rng.choice(a["fed"])])),
    "feed emitted": (lambda a: a["emitted"], lambda a, rng: dict(a, fed=a["fed"] + [rng.choice(a["emitted"])])),
    "reverse fed": (lambda a: a["fed"] != a["fed"][::-1], lambda a, rng: dict(a, fed=a["fed"][::-1])),
    "drop emitted": (lambda a: a["emitted"], lambda a, rng: dict(a, emitted=_without(a["emitted"], rng))),
}


def _without(hexes: list[str], rng: Random) -> list[str]:
    i = rng.randrange(len(hexes))
    return hexes[:i] + hexes[i + 1 :]


def _mutate_body(scenario: Scenario, events: list[dict], edit: str, shared: bool, rng: Random) -> list[dict]:
    """A copy of ``events`` with one INTERPRET entry of a correct server
    edited by ``_BODY_EDITS[edit]``: in the labels list that every correct
    server interpreting the block shares in memory if ``shared``, else in a
    copy of that list that only the chosen event holds."""
    admits, change = _BODY_EDITS[edit]
    correct = set(scenario.correct_servers())
    candidates = [
        (i, j)
        for i, ev in enumerate(events)
        if ev["kind"] == "INTERPRET" and ev["server"] in correct
        for j, act in enumerate(ev["labels"])
        if admits(act)
    ]
    i, j = rng.choice(candidates)
    old = events[i]["labels"]
    labels = old[:j] + [change(old[j], rng)] + old[j + 1 :]
    holders = {k for k, ev in enumerate(events) if ev["kind"] == "INTERPRET" and ev["labels"] is old}
    targets = holders if shared else {i}
    return [dict(ev, labels=labels) if k in targets else ev for k, ev in enumerate(events)]


def seeded_body_mutants() -> list[tuple[str, Scenario, list[dict]]]:
    """Four hundred traces: the runs of ``random_scenario`` and
    ``adversarial_scenario`` 0-19, each with one INTERPRET entry changed by
    each of ``_BODY_EDITS``, once in the labels list the correct servers
    share and once in one server's own copy (see ``_mutate_body``)."""
    mutants = []
    for name, make in (("random", random_scenario), ("adversarial", adversarial_scenario)):
        for index in range(20):
            scenario = make(index)
            events = run(scenario).events
            for edit in _BODY_EDITS:
                for shared in (True, False):
                    way = "shared" if shared else "own"
                    rng = Random(f"{name}-{index}-{edit}-{way}")
                    mutated = _mutate_body(scenario, events, edit, shared, rng)
                    mutants.append((f"{name} {index} {edit} {way}", scenario, mutated))
    return mutants


def seeded_body_mutant(name: str, scenario: Scenario, events: list[dict]) -> list[dict]:
    """A copy of ``events`` with one INTERPRET entry of a correct server
    changed as ``_mutate_body`` changes it, by an edit of ``_BODY_EDITS``
    that changes its messages, not only their order, in the shared labels
    list or in one server's own copy, both drawn from ``name``."""
    rng = Random(name)
    edit = rng.choice(sorted(set(_BODY_EDITS) - {"reverse fed"}))
    return _mutate_body(scenario, events, edit, rng.random() < 0.5, rng)


_AGREEMENT_EDITS = ("edit state", "drop entry")


def _mutate_agreement(
    scenario: Scenario, events: list[dict], edit: str, shared: bool, rng: Random
) -> list[dict]:
    """A copy of ``events`` with one INTERPRET entry of a correct server given
    a seeded random ``state`` (``edit state``) or taken out (``drop entry``):
    in the labels list that every correct server interpreting the block
    shares in memory if ``shared``, else in a copy that only the chosen event
    holds. The entry is of a block that another correct server interprets
    too, so an edit of one server's own copy always meets a differing digest."""
    correct = set(scenario.correct_servers())
    holders: dict[str, set[int]] = {}  # ref -> the correct servers interpreting it
    for ev in events:
        if ev["kind"] == "INTERPRET" and ev["server"] in correct:
            holders.setdefault(ev["ref"], set()).add(ev["server"])
    candidates = [
        (i, j)
        for i, ev in enumerate(events)
        if ev["kind"] == "INTERPRET" and ev["server"] in correct and len(holders[ev["ref"]]) > 1
        for j in range(len(ev["labels"]))
    ]
    i, j = rng.choice(candidates)
    old = events[i]["labels"]
    edited = [dict(old[j], state=rng.randbytes(32).hex())] if edit == "edit state" else []
    labels = old[:j] + edited + old[j + 1 :]
    holders_of_old = {k for k, ev in enumerate(events) if ev["kind"] == "INTERPRET" and ev["labels"] is old}
    targets = holders_of_old if shared else {i}
    return [dict(ev, labels=labels) if k in targets else ev for k, ev in enumerate(events)]


def seeded_agreement_mutants() -> list[tuple[str, Scenario, list[dict]]]:
    """A hundred and sixty traces: the runs of ``random_scenario`` and
    ``adversarial_scenario`` 0-19, each with one INTERPRET entry changed by
    each of ``_AGREEMENT_EDITS``, once in the labels list the correct servers
    share and once in one server's own copy (see ``_mutate_agreement``)."""
    mutants = []
    for name, make in (("random", random_scenario), ("adversarial", adversarial_scenario)):
        for index in range(20):
            scenario = make(index)
            events = run(scenario).events
            for edit in _AGREEMENT_EDITS:
                for shared in (True, False):
                    way = "shared" if shared else "own"
                    rng = Random(f"agreement-{name}-{index}-{edit}-{way}")
                    mutated = _mutate_agreement(scenario, events, edit, shared, rng)
                    mutants.append((f"{name} {index} {edit} {way}", scenario, mutated))
    return mutants
