"""The library's record types are immutable values.

Records that only hold fields are ``typing.NamedTuple``s; the three that
check their arguments (``SolverConfig``, ``Orientation``, ``Embedding``)
are ``__slots__`` classes on ``graphs.FrozenRecord``.  Either way a field
cannot be assigned, and a record equals, hashes and pickles by its fields.
"""

import copy
import pickle

import pytest

from wordrep.debruijn import build_debruijn, build_simplified
from wordrep.graphs import build_graph
from wordrep.orientations import BruteForceResult, Orientation, ShortcutWitness
from wordrep.solver import (
    BudgetExceeded,
    NonSemiTransitive,
    SemiTransitive,
    SolverConfig,
    _cycle_inventory,
)
from wordrep.subiso import Embedding
from wordrep.traces import (
    Branch,
    LineStatus,
    MoveCopy,
    Orient,
    Preamble,
    ProofTrace,
    Root,
    Shortcut,
    TraceLine,
    VerificationReport,
)

PATH3 = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
ORIENTATION = Orientation(PATH3, ((0, 1), (1, 2)))
TERMINAL = Shortcut(("a", "b", "c"))
PROOF = ProofTrace(Preamble(("a", "b"), "a"), (TraceLine(1, Root(), (), TERMINAL),))

# each record with the name of one of its fields (Root has none)
RECORDS = [
    (Branch(("a", "b"), 2), "copy_id"),
    (Orient((("a", "b"),), ("a", "b", "c")), "arcs"),
    (TERMINAL, "path"),
    (Root(), None),
    (MoveCopy(2, ("b", "a")), "arc"),
    (PROOF.lines[0], "steps"),
    (PROOF.preamble, "source_vertex"),
    (PROOF, "lines"),
    (LineStatus(1, True), "accepted"),
    (VerificationReport((LineStatus(1, True),), {}, True), "accepted"),
    (SolverConfig(), "budget"),
    (SemiTransitive(ORIENTATION), "orientation"),
    (NonSemiTransitive(PROOF), "trace"),
    (BudgetExceeded(1), "nodes"),
    (_cycle_inventory(PATH3, 3), "prints"),
    (ORIENTATION, "arcs"),
    (ShortcutWitness((0, 1, 2), (0, 1)), "violation"),
    (BruteForceResult("exists", ORIENTATION, 1), "verdict"),
    (build_debruijn(1, 2), "arcs"),
    (build_simplified(1, 2), "edge_labels"),
    (Embedding(PATH3, PATH3, (2, 1, 0)), "mapping"),
]


@pytest.mark.parametrize(
    "record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS]
)
def test_a_record_refuses_assignment(record, field):
    if field is not None:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = None


VALIDATING = [
    (SolverConfig, ("a", True, 5, 6), "budget"),
    (Orientation, (PATH3, ((0, 1), (1, 2))), "graph"),
    (Embedding, (PATH3, PATH3, (2, 1, 0)), "mapping"),
]


@pytest.mark.parametrize(
    "cls, args, field", VALIDATING, ids=[cls.__name__ for cls, _, _ in VALIDATING]
)
def test_a_validating_record_is_a_value(cls, args, field):
    record, twin = cls(*args), cls(*args)
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert record != args  # unlike a NamedTuple
    assert repr(twin) == repr(record) and repr(record).startswith(f"{cls.__name__}(")
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is getattr(twin, field)
