"""Property tests for the GFW filter over synthetic response batches.

A target's responses are single-answer NOERROR responses: the last one
stands for its genuine variant and the ones before it are extra answers,
which share one record type per scan (as in a real scan).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gfw.filter import GfwFilter
from repro.net.teredo import encode_teredo
from repro.protocols import DnsAnswer, DnsResponse, DnsStatus, RecordType
from tests.gfw.oracle import udp53_from_responses

GENUINE = DnsAnswer(rtype=RecordType.AAAA, address=0x2A00 << 112 | 1)
FORGED_A = DnsAnswer(rtype=RecordType.A, address=0x1F0D5801)
FORGED_TEREDO = DnsAnswer(
    rtype=RecordType.AAAA, address=encode_teredo(1, 0x0D6B4001, 53)
)

answer_strategy = st.sampled_from([GENUINE, FORGED_A, FORGED_TEREDO])
#: extra answers of one scan: all AAAA (genuine or Teredo) or all A
extra_families = st.sampled_from([
    st.sampled_from([GENUINE, FORGED_TEREDO]), st.just(FORGED_A),
])


@st.composite
def scans(draw, max_answers, max_targets):
    """Per-target answer lists: extras of one family, then any answer."""
    extra = draw(extra_families)
    answers = st.tuples(
        st.lists(extra, max_size=max_answers - 1), answer_strategy
    ).map(lambda pair: pair[0] + [pair[1]])
    return draw(st.dictionaries(
        st.integers(min_value=1, max_value=10**30), answers,
        min_size=1, max_size=max_targets,
    ))


def build_result(day, target_answers):
    return udp53_from_responses(day, {
        target: tuple(
            DnsResponse(responder=target, qname="www.google.com",
                        status=DnsStatus.NOERROR, answers=(answer,))
            for answer in answers
        )
        for target, answers in target_answers.items()
    })


@settings(max_examples=60, deadline=None)
@given(scans(max_answers=4, max_targets=20))
def test_partition_is_exact(target_answers):
    """Every responder lands in exactly one of {clean, injected}."""
    f = GfwFilter()
    cleaning = f.clean_scan(build_result(1, target_answers))
    responders = set(target_answers)
    assert cleaning.clean_responders | cleaning.injected_responders == responders
    assert not cleaning.clean_responders & cleaning.injected_responders
    # classification matches forged-evidence presence per target
    for target, answers in target_answers.items():
        forged = any(answer is not GENUINE for answer in answers)
        assert (target in cleaning.injected_responders) == forged


@settings(max_examples=40, deadline=None)
@given(
    scans(max_answers=3, max_targets=12),
    st.sets(st.integers(min_value=1, max_value=10**30), max_size=12),
)
def test_historical_filter_monotone(target_answers, other_protocol):
    """The purge set never contains other-protocol responders and only
    grows with more injected evidence."""
    f = GfwFilter()
    f.clean_scan(build_result(1, target_answers))
    before = set(f.historical_filter_set())
    f.note_other_protocol_responders(other_protocol)
    after = f.historical_filter_set()
    assert after == before - other_protocol
    assert after <= f.ever_injected
    # a second scan can only extend the injected set
    f.clean_scan(build_result(2, target_answers))
    assert f.historical_filter_set() >= after - other_protocol


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.integers(min_value=1, max_value=10**30),
    st.lists(st.just(FORGED_TEREDO), min_size=1, max_size=3),
    min_size=1, max_size=10,
))
def test_attribution_counts_every_forged_answer(target_answers):
    f = GfwFilter()
    f.clean_scan(build_result(1, target_answers))
    forged_total = sum(len(answers) for answers in target_answers.values())
    assert sum(f.forged_answer_owners.values()) == forged_total
    assert set(f.forged_answer_owners) == {8075}  # Microsoft range embedded
