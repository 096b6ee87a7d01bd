"""Differential test: the bulk loss model against the scalar oracle.

:class:`repro.scan.loss.LossModel` is the one home of the probe-loss
draw that the scan engine, APD and the incremental scheduler's replay
share.  :mod:`tests.scan.oracle` spells the same formulas out one
target at a time without it.  For every loss rate, attempt count and
burst setting below, the two must agree per target on every
single-protocol stream, every fast slice, the retry count and the
five-bit replay mask.  Besides spread addresses, each case probes
targets whose draws land exactly on and just below its loss thresholds
(SplitMix64 is a bijection, so such targets can be solved for).
"""

import itertools

import pytest

from repro._util import mix64
from repro.protocols import ALL_PROTOCOLS, Protocol
from repro.runtime.faults import FaultPlan, LossBurst, RetryPolicy
from repro.scan.loss import LossModel
from repro.scan.vecmix import pack_bases
from tests.scan.oracle import OracleScanner

DAY = 61
SEED = 0xC0FFEE
#: a burst around DAY that swallows about a third of the targets
BURST = FaultPlan(seed=3, bursts=(LossBurst(DAY - 1, DAY + 1, 0.3),))
#: edge addresses plus spread 128-bit ones; 1001 is not a power of two,
#: so the lane padding is exercised
TARGETS = [0, 1, (1 << 128) - 1, (0x2001 << 112) | 1] + [
    (mix64(i) << 64) | mix64(i ^ 0xABC) for i in range(997)
]
CASES = list(itertools.product((0.0, 0.03, 0.5), (1, 2, 3), (None, BURST)))
_M64 = 0xFFFFFFFFFFFFFFFF
_INV_C1 = pow(0xBF58476D1CE4E5B9, -1, 1 << 64)
_INV_C2 = pow(0x94D049BB133111EB, -1, 1 << 64)


def _unxorshift(value, shift):
    result = value
    for _ in range(64 // shift + 1):
        result = value ^ (result >> shift)
    return result


def _unmix64(value):
    """The inverse of :func:`repro._util.mix64`."""
    value = _unxorshift(value, 31) * _INV_C2 & _M64
    value = _unxorshift(value, 27) * _INV_C1 & _M64
    return _unxorshift(value, 30)


def _boundary_targets(model):
    """Targets whose draw equals a loss threshold, or sits one below it."""
    targets = []
    if model.threshold16:
        for inner in model.inner(DAY):
            for index in range(4):
                for value in (model.threshold16, model.threshold16 - 1):
                    draw = _M64 ^ ((0xFFFF ^ value) << (16 * index))
                    targets.append(_unmix64(draw) ^ inner)
    if model.threshold64:
        for protocol in ALL_PROTOCOLS:
            for inner in model.inner(DAY, protocol):
                for value in (model.threshold64, model.threshold64 - 1):
                    targets.append(_unmix64(value) ^ inner)
    return targets


def _case_id(case):
    loss_rate, attempts, plan = case
    return f"loss{loss_rate}-x{attempts}-{'burst' if plan else 'clear'}"


@pytest.fixture(params=CASES, ids=[_case_id(case) for case in CASES])
def pair(request, small_world):
    loss_rate, attempts, plan = request.param
    model = LossModel(
        seed=SEED, loss_rate=loss_rate, attempts=attempts, fault_plan=plan
    )
    oracle = OracleScanner(
        small_world, loss_rate=loss_rate, seed=SEED, fault_plan=plan,
        retry=RetryPolicy(attempts=attempts),
    )
    return model, oracle, TARGETS + _boundary_targets(model)


def test_unmix64_inverts_mix64():
    for value in TARGETS:
        assert _unmix64(mix64(value)) == value & _M64


def _oracle_draws(oracle, draw, *args):
    """``draw(*args)`` and the retry re-draws the oracle counted for it."""
    before = oracle._retry_draws
    value = draw(*args)
    return value, oracle._retry_draws - before


def test_single_protocol_streams_match_oracle(pair):
    model, oracle, targets = pair
    lanes = pack_bases(targets)
    for protocol in ALL_PROTOCOLS:
        oks = model.survival(lanes, DAY, protocol)
        assert len(oks) == (model.attempts if model.loss_rate else 1)
        for i, target in enumerate(targets):
            lost, draws = _oracle_draws(oracle, oracle._lost, target, protocol, DAY)
            first = next((a for a, ok in enumerate(oks) if ok[i]), None)
            assert lost == (first is None), (protocol, hex(target))
            assert draws == (len(oks) - 1 if first is None else first)


def test_fast_slices_match_oracle(pair):
    model, oracle, targets = pair
    nibs = model.survival(pack_bases(targets), DAY)
    for i, target in enumerate(targets):
        survived, draws = _oracle_draws(oracle, oracle._fast_survived, target, DAY)
        got = 0
        completed = None
        for attempt, nibbles in enumerate(nibs):
            got |= nibbles[i]
            if got == 0b1111:
                completed = attempt
                break
        for index in range(4):
            assert got >> index & 1 == survived >> index & 1, (index, hex(target))
        assert draws == (model.attempts - 1 if completed is None else completed)


def test_replay_masks_match_oracle(pair):
    model, oracle, targets = pair
    plan = model.fault_plan
    masks = model.replay_masks(targets, DAY)
    assert len(masks) == len(targets)
    burst = 0
    for target, mask in zip(targets, masks):
        if plan is not None and plan.burst_lost(target, DAY):
            burst += 1
            assert mask == 0
            continue
        want = oracle._fast_survived(target, DAY)
        if not oracle._lost(target, Protocol.UDP53, DAY):
            want |= 0x10
        assert mask == want, hex(target)
    if plan is not None:
        assert 0 < burst < len(targets)


def test_burst_flags_only_on_burst_days():
    model = LossModel(seed=SEED, fault_plan=BURST)
    assert model.burst_lost(TARGETS, DAY + 5) is None
    assert LossModel(seed=SEED).burst_lost(TARGETS, DAY) is None
    assert model.burst_lost(TARGETS, DAY) == [
        BURST.burst_lost(target, DAY) for target in TARGETS
    ]


def test_empty_and_invalid():
    assert LossModel().replay_masks([], DAY) == b""
    with pytest.raises(ValueError, match="loss rate"):
        LossModel(loss_rate=1.0)
    with pytest.raises(ValueError, match="attempts"):
        LossModel(attempts=0)
