import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from slowtorus.params import (
    ChainFormatError,
    CustomStep,
    ParamProfile,
    ProfileError,
    StageParams,
    advance_stage,
    build_chain,
    chain_from_json,
    chain_to_json,
    idealized_q_sequence,
    validate_chain,
)


def intermediate_profile(q1=2, r=4):
    return ParamProfile(regime="intermediate", q1=q1, r=r)


def test_first_step_squares_q_and_adds_beta():
    prof = intermediate_profile()
    s1 = prof.first_stage()
    assert (s1.k, s1.l, s1.q, s1.alpha) == (1, 1, 2, Fraction(1, 2))
    s2 = advance_stage(s1, prof)
    assert s2.q == 4
    assert s2.alpha == Fraction(1, 2) + Fraction(1, 4) == Fraction(3, 4)
    assert s2.alpha.denominator == s2.q


def test_intermediate_regime_target_at_stage_two():
    # q_3 = q_2**(2**4) needs k*l = q_2**14
    prof = intermediate_profile()
    chain = build_chain(prof, 3)
    s2, s3 = chain[1], chain[2]
    assert s2.k == 1 and s2.l == 4**14
    assert s3.q == 4**16
    assert s3.q == s2.q ** (2**4)


def test_idealized_sequence_values():
    assert idealized_q_sequence(2, 4, 1) == [2]
    assert idealized_q_sequence(2, 4, 2) == [2, 2**16]
    seq = idealized_q_sequence(3, 4, 3)
    assert seq == [3, 3**16, 3 ** (16 * 81)]


def test_idealized_sequence_refuses_huge():
    with pytest.raises(OverflowError, match="digits"):
        idealized_q_sequence(2, 4, 9)


def test_idealized_decoupled_from_recursion():
    # the closed form starts q~_2 = q1, the recursion starts q_2 = q1**2
    prof = intermediate_profile()
    chain = build_chain(prof, 2)
    assert chain[1].q == 4
    assert idealized_q_sequence(2, 4, 1)[0] == 2


def test_validate_intermediate_chain_passes():
    prof = intermediate_profile()
    chain = build_chain(prof, 4)
    rep = validate_chain(chain, prof)
    assert rep.passed
    assert not rep.failures()  # every applicable check passes


def test_validate_flags_lprime_one():
    prof = ParamProfile(
        regime="custom",
        q1=2,
        relax_eps=True,
        custom=(CustomStep(1, 2, 1), CustomStep(1, 2, 8)),
    )
    chain = build_chain(prof, 2)
    rep = validate_chain(chain, prof)
    fails = {r.name for r in rep.results if r.applicable and not r.ok}
    assert "summability" in fails


def test_validate_flags_large_eps():
    prof = ParamProfile(regime="intermediate", q1=2, r=4)
    chain = build_chain(prof, 3)
    bad = StageParams(
        n=3,
        p=chain[2].p,
        q=chain[2].q,
        k=chain[2].k,
        l=chain[2].l,
        l_prime=chain[2].l_prime,
        alpha=chain[2].alpha,
        eps=Fraction(1, 2),
        m_smooth=chain[2].m_smooth,
    )
    rep = validate_chain([chain[0], chain[1], bad], prof)
    fails = [(r.name, r.stage) for r in rep.results if r.applicable and not r.ok]
    assert ("eps_small", 3) in fails


@pytest.mark.parametrize(
    "scale, shift",
    [
        # alpha shifted by 1: same fraction class, wrong p
        pytest.param(1, 1, id="alpha-shifted"),
        # p and q doubled: alpha unchanged, q off the recursion
        pytest.param(2, 0, id="p-q-doubled"),
    ],
)
def test_successor_consistency_detects_tampering(scale, shift):
    prof = intermediate_profile()
    chain = build_chain(prof, 2)
    good = chain[1]
    bad = StageParams(
        n=2,
        p=scale * good.p + shift * good.q,
        q=scale * good.q,
        k=good.k,
        l=good.l,
        l_prime=good.l_prime,
        alpha=good.alpha + shift,
        eps=good.eps,
        m_smooth=good.m_smooth,
    )
    rep = validate_chain([chain[0], bad], prof)
    assert not rep.passed


def test_chain_invariants_alpha_and_divisibility():
    prof = intermediate_profile()
    chain = build_chain(prof, 4)
    for a, b in zip(chain, chain[1:]):
        assert b.alpha - a.alpha == a.beta
        assert b.q % a.q == 0
        assert b.alpha.denominator == b.q
        # exact exponent identity for the intermediate regime from stage 2 on
        if a.n >= 2:
            assert b.q == a.q ** (a.n**prof.r)


def test_serialization_roundtrip_bit_exact():
    prof = intermediate_profile()
    chain = build_chain(prof, 4)
    text = chain_to_json(chain)
    again = chain_from_json(text)
    assert again == chain
    assert chain_to_json(again) == text


def _stage_doc(**changes):
    """A one-stage chain document with some stage fields replaced."""
    rec = build_chain(intermediate_profile(), 1)[0].to_dict()
    return json.dumps({"schema_version": 1, "stages": [{**rec, **changes}]})


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(_stage_doc(alpha="1/0"), id="alpha-zero-denominator"),
        pytest.param(_stage_doc(eps="1/0"), id="eps-zero-denominator"),
        pytest.param(_stage_doc(alpha=5), id="alpha-int"),
        pytest.param(_stage_doc(n=None), id="n-null"),
        pytest.param(_stage_doc(n=1.9), id="n-float"),
        pytest.param(_stage_doc(k=True), id="k-bool"),
        pytest.param(_stage_doc(m_smooth=0.5), id="m_smooth-float"),
        # p, q, l and l_prime are written as digit strings; int() would take
        # each of these, the numbers included
        pytest.param(_stage_doc(p=1.0), id="p-float"),
        pytest.param(_stage_doc(l_prime=True), id="l_prime-bool"),
        pytest.param(_stage_doc(q=2), id="q-int"),
        pytest.param(_stage_doc(l="+1"), id="l-signed-string"),
        pytest.param(json.dumps({"schema_version": 1, "stages": 3}), id="stages-int"),
        pytest.param(json.dumps({"schema_version": 1, "stages": [1]}), id="stage-int"),
        pytest.param(json.dumps({"schema_version": "x", "stages": []}), id="version-str"),
        pytest.param("not json", id="not-json"),
    ],
)
def test_malformed_chain_raises_chain_format_error(text):
    with pytest.raises(ChainFormatError):
        chain_from_json(text)


def test_eps_schedule_exact_and_relaxed():
    strict = intermediate_profile()
    chain = build_chain(strict, 3)
    assert chain[2].eps == Fraction(1, 81)  # q_3 huge, so 1/n^4 feasible
    relaxed = ParamProfile(
        regime="custom", q1=2, relax_eps=True, custom=(CustomStep(1, 2, 4),) * 3
    )
    for st in build_chain(relaxed, 3):
        assert st.eps == Fraction(1, 8)


@settings(max_examples=25, deadline=None)
@given(
    q1=hst.integers(min_value=2, max_value=5),
    kls=hst.lists(
        hst.tuples(
            hst.integers(min_value=1, max_value=3),
            hst.integers(min_value=1, max_value=6),
            hst.integers(min_value=2, max_value=9),
        ),
        min_size=2,
        max_size=4,
    ),
)
def test_custom_chain_recursion_properties(q1, kls):
    prof = ParamProfile(
        regime="custom",
        q1=q1,
        relax_eps=True,
        custom=tuple(CustomStep(k, l, lp) for (k, l, lp) in kls),
    )
    chain = build_chain(prof, len(kls))
    for a, b in zip(chain, chain[1:]):
        assert b.q == a.k * a.l * a.q * a.q
        assert b.p == a.k * a.l * a.q * a.p + 1
        assert b.alpha == a.alpha + a.beta
        assert math.gcd(b.p, b.q) == 1
        assert b.alpha.denominator == b.q


def test_custom_schedule_exhaustion_names_stage():
    prof = ParamProfile(
        regime="custom", q1=2, relax_eps=True, custom=(CustomStep(1, 2, 4),)
    )
    chain = build_chain(prof, 1)
    with pytest.raises(ProfileError, match="stage 2"):
        advance_stage(chain[0], prof)
