"""Value semantics of the package's record classes.

Every class derives from the one base `rootdata.Record` and declares its
fields once: equality and hash read the constructor's fields only (never
the derived `xi` or `_order`), frozen classes refuse assignment and
deletion, the report classes stay mutable and unhashable, and the repr
strings are pinned byte for byte.
"""

import pytest

from superchar import bggcheck, borels, diagrams, rootdata
from superchar.rootdata import RankProfile, Weight

P21, P11 = RankProfile(2, 1), RankProfile(1, 1)
LAM = rootdata.weight_from_coords(P21, [5, 0], [5])

# field names in constructor order, and the repr of the class's entry in SAMPLES
FROZEN = {
    "RankProfile": (("m", "n"), "RankProfile(m=2, n=1)"),
    "Weight": (
        ("profile", "coeffs"),
        "Weight(profile=RankProfile(m=2, n=1), coeffs=(5, 1, -6))",
    ),
    "Root": (("profile", "i", "j"), "Root(profile=RankProfile(m=2, n=1), i=1, j=3)"),
    "WeylElt": (("sigma", "tau"), "WeylElt(sigma=(2, 1), tau=(1,))"),
    "WeightFlags": (("regular", "dominant"), "WeightFlags(regular=True, dominant=True)"),
    "Atypicality": (
        ("aty", "gamma"),
        "Atypicality(aty=1, gamma=frozenset({Root(profile=RankProfile(m=2, n=1), i=1, j=3)}))",
    ),
    "BorelElt": (
        ("profile", "partition"),
        "BorelElt(profile=RankProfile(m=2, n=1), partition=(1,))",
    ),
    "OddReflectionEdge": (
        ("source", "target", "alpha"),
        "OddReflectionEdge(source=BorelElt(profile=RankProfile(m=2, n=1), partition=()), "
        "target=BorelElt(profile=RankProfile(m=2, n=1), partition=(1,)), "
        "alpha=Root(profile=RankProfile(m=2, n=1), i=2, j=3))",
    ),
    "WeightDiagram": (
        ("profile", "entries"),
        "WeightDiagram(profile=RankProfile(m=2, n=1), entries=((0, 'cross'), (5, 'vee')))",
    ),
}
REPORTS = {
    "EulerReport": (
        ("lam", "depth", "lhs", "rhs", "equal", "first_discrepancy", "note"),
        "EulerReport(lam=Weight(profile=RankProfile(m=2, n=1), coeffs=(5, 1, -6)), depth=2, "
        "lhs=FormalChar(top=(5,1|-6), depth=2, 5 terms), "
        "rhs=FormalChar(top=(5,1|-6), depth=2, 5 terms), equal=True, first_discrepancy=None, "
        "note='full exactness is certified only at Euler-characteristic level for Weyl "
        "groups of order > 2')",
    ),
    "SweepReport": (
        ("profile", "pairs_checked", "equalities_passed", "top_coeff_checks",
         "mismatches_tried", "mismatches_detected", "passed"),
        "SweepReport(profile=RankProfile(m=1, n=1), pairs_checked=4, equalities_passed=4, "
        "top_coeff_checks=4, mismatches_tried=10, mismatches_detected=10, passed=True)",
    ),
    "ExactnessReport": (
        ("lam", "depth", "passed", "injective", "cokernel_matches"),
        "ExactnessReport(lam=Weight(profile=RankProfile(m=2, n=1), coeffs=(5, 1, -6)), "
        "depth=2, passed=True, injective=True, cokernel_matches=True)",
    ),
    "ImageReport": (
        ("lam", "depth", "rows", "passed"),
        "ImageReport(lam=Weight(profile=RankProfile(m=1, n=1), coeffs=(1, -1)), depth=1, "
        "rows=((Weight(profile=RankProfile(m=1, n=1), coeffs=(1, -1)), 1, 1), "
        "(Weight(profile=RankProfile(m=1, n=1), coeffs=(0, 0)), 0, 0)), passed=True)",
    ),
}


# one small instance of each class, built the way the package builds it
SAMPLES = {
    "RankProfile": lambda: P21,
    "Weight": lambda: LAM,
    "Root": lambda: rootdata.Root(P21, 1, 3),
    "WeylElt": lambda: rootdata.WeylElt((2, 1), (1,)),
    "WeightFlags": lambda: rootdata.classify(LAM),
    "Atypicality": lambda: rootdata.atypicality(LAM),
    "BorelElt": lambda: borels.BorelElt(P21, (1,)),
    "OddReflectionEdge": lambda: borels.borel_graph(P21)[0],
    "WeightDiagram": lambda: diagrams.weight_diagram(LAM),
    "EulerReport": lambda: bggcheck.euler_check(LAM, 2),
    "SweepReport": lambda: bggcheck.character_shift_sweep(P11, trials=1, depth=1),
    "ExactnessReport": lambda: bggcheck.small_rank_exactness(LAM, 2),
    "ImageReport": lambda: bggcheck.image_check(rootdata.weight_from_coords(P11, [1], [1]), 1),
}


def rebuilt(obj, fields):
    """A new instance of obj's class from obj's fields."""
    return type(obj)(*(getattr(obj, f) for f in fields))


@pytest.mark.parametrize("name", sorted({**FROZEN, **REPORTS}))
def test_repr_and_equality_read_the_fields(name):
    fields, shown = {**FROZEN, **REPORTS}[name]
    obj = SAMPLES[name]()
    assert type(obj).__name__ == name
    assert repr(obj) == shown
    twin = rebuilt(obj, fields)
    assert twin is not obj and twin == obj and not twin != obj
    assert obj != tuple(getattr(obj, f) for f in fields)  # another type is never equal
    assert not hasattr(obj, "__dict__")
    # the rule is written once, in Record
    assert isinstance(obj, rootdata.Record)
    assert not {"__eq__", "__hash__", "__repr__", "__setattr__"} & set(vars(type(obj)))


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_classes_hash_their_fields_and_refuse_assignment(name):
    fields, _ = FROZEN[name]
    obj = SAMPLES[name]()
    values = tuple(getattr(obj, f) for f in fields)
    assert hash(obj) == hash(rebuilt(obj, fields)) == hash(values)
    for attr in (*fields, *obj.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert tuple(getattr(obj, f) for f in fields) == values


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_are_mutable_and_unhashable(name):
    fields, _ = REPORTS[name]
    obj = SAMPLES[name]()
    twin = rebuilt(obj, fields)
    with pytest.raises(TypeError):
        hash(obj)
    setattr(twin, fields[-1], "changed")
    assert getattr(twin, fields[-1]) == "changed" and twin != obj
    with pytest.raises(AttributeError):
        twin.extra = 1  # slotted: only the fields exist


@pytest.mark.parametrize("cls, fields, derived", [
    (RankProfile, (2, 1), "xi"),
    (Weight, (P21, (5, 1, -6)), "xi"),
    (borels.BorelElt, (P21, (1,)), "_order"),
])
def test_derived_slots_stay_out_of_equality_and_hash(cls, fields, derived):
    a, b = cls(*fields), cls(*fields)
    object.__setattr__(b, derived, "something else")
    assert a == b and hash(a) == hash(b) == hash(fields)
    assert repr(a) == repr(b) and derived not in repr(a)


@pytest.mark.parametrize("build, given", [
    (lambda seq: Weight(P21, seq), [5, 1, -6]),
    (lambda seq: rootdata.WeylElt(seq, (1,)), [2, 1]),
    (lambda seq: rootdata.WeylElt((2, 1), seq), [1]),
    (lambda seq: borels.BorelElt(P21, seq), [1]),
], ids=["Weight.coeffs", "WeylElt.sigma", "WeylElt.tau", "BorelElt.partition"])
def test_tuple_fields_refuse_lists(build, given):
    kept = list(given)
    with pytest.raises(TypeError):
        build(given)
    assert given == kept  # the caller's list is left as it was


def test_euler_report_note_defaults_to_the_scope_note():
    report = SAMPLES["EulerReport"]()
    fields = REPORTS["EulerReport"][0][:-1]
    assert report.note == bggcheck.EULER_SCOPE_NOTE
    assert rebuilt(report, fields) == report


def test_weight_post_init_runs_once_per_construction(monkeypatch):
    built = []
    original = Weight.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Weight, "__post_init__", counting)
    w = Weight(P21, (1, 2, 3))
    assert built == [w] and w.xi == 3 * 1 + 2 * 2 + 1 * 3
    total = w + w
    assert built == [w, total]
    Weight(profile=P21, coeffs=(0, 0, 0))
    assert len(built) == 3
    with pytest.raises(ValueError):
        Weight(P21, (1, 2))
    assert len(built) == 4
