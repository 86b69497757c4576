import random

import pytest
from helpers import random_reduced_word

from spotdisk.errors import RankError
from spotdisk.pushcalc import (
    RULES,
    ArcLabel,
    BoundTrace,
    DiskLabel,
    PushLabel,
    Side,
    TraceStep,
    disk_normalize,
    push_arc,
    q_class,
    sphere_equiv_bound,
)
from spotdisk.words import ReducedWord, concat, inverse, parse, power


def test_push_by_identity_fixes_the_arc():
    arc = ArcLabel(parse("x1 x2", 2))
    assert push_arc(arc, ReducedWord.identity(2)) == arc


def test_push_of_base_arc_is_the_loop():
    base = ArcLabel(ReducedWord.identity(2))
    loop = parse("x2 X1", 2)
    assert push_arc(base, loop).word == loop


def test_push_action_law_random():
    rng = random.Random(401)
    for _ in range(400):
        arc = ArcLabel(random_reduced_word(rng, 3, rng.randint(0, 8)))
        g1 = random_reduced_word(rng, 3, rng.randint(0, 8))
        g2 = random_reduced_word(rng, 3, rng.randint(0, 8))
        assert push_arc(push_arc(arc, g1), g2) == push_arc(arc, concat(g1, g2))


def test_push_rank_mismatch():
    with pytest.raises(RankError):
        push_arc(ArcLabel(ReducedWord.identity(2)), ReducedWord.identity(3))


def test_q_class_of_equal_arcs_is_identity():
    arc = ArcLabel(parse("x1 X2", 2))
    assert q_class(arc, arc).is_identity


def test_q_class_antisymmetry_and_recovery():
    rng = random.Random(402)
    for _ in range(300):
        alpha = ArcLabel(random_reduced_word(rng, 2, rng.randint(0, 9)))
        beta = ArcLabel(random_reduced_word(rng, 2, rng.randint(0, 9)))
        q = q_class(alpha, beta)
        assert q == inverse(q_class(beta, alpha))
        assert push_arc(alpha, q) == beta


def test_disk_normalize_strips_leading_coset_powers():
    u = parse("x1 x3", 3)
    prefixed = concat(power(parse("x3", 3), 2), u)
    assert disk_normalize(prefixed) == disk_normalize(u)
    assert disk_normalize(ReducedWord.identity(3)).coset_rep.is_identity


def test_disk_normalize_defaults_to_top_letter_and_is_idempotent():
    rng = random.Random(403)
    for _ in range(300):
        w = random_reduced_word(rng, 3, rng.randint(0, 10))
        label = disk_normalize(w)
        assert label.c_index == 3
        assert disk_normalize(label.coset_rep) == label


def test_disk_normalize_is_coset_invariant():
    rng = random.Random(404)
    c = parse("x2", 2)
    for _ in range(300):
        w = random_reduced_word(rng, 2, rng.randint(0, 10))
        k = rng.randint(-4, 4)
        shifted = concat(power(c, k), w)
        assert disk_normalize(shifted) == disk_normalize(w)


def test_disk_label_rejects_leading_coset_letter():
    with pytest.raises(ValueError):
        DiskLabel(parse("x2 x1", 2), 2)
    with pytest.raises(RankError):
        DiskLabel(parse("x1", 2), 3)


def test_sphere_equiv_bound_fires_on_the_swap_pattern():
    u = parse("x1 x2", 4)
    trace = sphere_equiv_bound(
        PushLabel(Side.SIDE2, u), PushLabel(Side.SIDE1, inverse(u))
    )
    assert trace is not None
    assert trace.total == 2
    assert [s.rule for s in trace.steps] == ["pointcommute"]
    flipped = sphere_equiv_bound(
        PushLabel(Side.SIDE1, inverse(u)), PushLabel(Side.SIDE2, u)
    )
    assert flipped is not None and flipped.total == 2


def test_sphere_equiv_bound_equal_labels_cost_nothing():
    label = PushLabel(Side.SIDE2, parse("x1", 4))
    trace = sphere_equiv_bound(label, label)
    assert trace is not None
    assert trace.total == 0
    assert trace.steps == ()


def test_sphere_equiv_bound_rejects_non_matching_pairs():
    u = parse("x1 x2", 4)
    assert sphere_equiv_bound(PushLabel(Side.SIDE2, u), PushLabel(Side.SIDE1, u)) is None
    assert (
        sphere_equiv_bound(PushLabel(Side.SIDE2, u), PushLabel(Side.SIDE2, inverse(u)))
        is None
    )


def test_trace_steps_validate_rule_names_and_totals():
    with pytest.raises(ValueError):
        TraceStep("unknown", "note", 1)
    with pytest.raises(ValueError):
        TraceStep("triangle", "note", -1)
    step = TraceStep("triangle", "note", 3)
    with pytest.raises(ValueError):
        BoundTrace((step,), 4)
    assert set(RULES) >= {"pointcommute", "crucial2", "distanceestimate"}


def test_push_label_rendering():
    assert str(PushLabel(Side.SIDE2, parse("x1", 4))) == "[a,x1]_2"
    assert str(PushLabel(Side.SIDE1, parse("x1", 4))) == "[a^-1,x1]_1"
