"""Shared-version differential harness: replicas share one state per version.

Every :class:`VersionLog` starts from one shared empty state, and
:func:`~repro.data.update.apply_update` remembers its last ``(input state,
result)`` on the update object.  Replicas that apply the same update
objects in the same order therefore hold the very same states.  The
contract is that the sharing is invisible:

1. A Hypothesis property replays random Fig. 4 programs through k logs in
   an interleaved order, with tentative folds (a secondary's view) over
   the updates a log has not applied yet.  Every step equals the in-place
   reference (``reference_update.py``) by value, every log that has
   applied the same updates holds the same head object, and at the end
   all heads and records are one object each.  A fresh copy of an update
   (same fields, empty memo) and a state restored from its archival bytes
   both miss the memo, and still produce the reference's state.
2. After every seed-0 chaos scenario, the shared empty state still
   serializes to the bytes of a fresh ``DataObjectState()``: no code path
   mutated a published state in place.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_update import reference_apply, reference_state
from repro.chaos import SCENARIOS, run_scenario
from repro.core.system import deserialize_state, serialize_state
from repro.data import (
    DataObjectState,
    VersionLog,
    apply_update,
    make_update,
)
from repro.data.version_log import EMPTY_STATE
from test_update_differential import AUTHOR, GUID, fig4_programs


def _snapshot(state: DataObjectState) -> tuple:
    """What a reader can observe of a state, frozen.  A production state
    holds only the blocks it reaches (``test_update_differential.py``);
    the grow-only reference is restricted to them here."""
    data = state.data
    reachable = data.reachable() if hasattr(data, "reachable") else set(data.blocks)
    return (
        state.version,
        list(data.slots),
        data.next_block_id,
        data.logical_ciphertext(),
        list(state.search_cells),
        {block_id: data.blocks[block_id] for block_id in reachable},
    )


def _reference_steps(updates) -> list:
    """``(outcome, snapshot)`` after each update; entry 0 is the start."""
    reference = reference_state()
    steps = [(None, _snapshot(reference))]
    for update in updates:
        outcome = reference_apply(reference, update)
        steps.append((outcome, _snapshot(reference)))
    return steps


@settings(max_examples=100, deadline=None)
@given(fig4_programs, st.integers(min_value=2, max_value=4), st.data())
def test_replicas_share_every_version(program, k, data):
    updates = [
        make_update(AUTHOR, GUID, branches, float(ts))
        for ts, branches in enumerate(program)
    ]
    steps = _reference_steps(updates)
    logs = [VersionLog() for _ in range(k)]
    applied = [0] * k
    #: updates applied -> the one head every log holds at that point
    heads = {0: EMPTY_STATE}
    while True:
        behind = [i for i in range(k) if applied[i] < len(updates)]
        if not behind:
            break
        i = data.draw(st.sampled_from(behind), label="log")
        log, step = logs[i], applied[i]
        if data.draw(st.booleans(), label="tentative fold"):
            state = log.head
            for update in updates[step:]:
                _, state = apply_update(state, update)
            assert _snapshot(state) == steps[-1][1]
        outcome = log.apply(updates[step])
        applied[i] = step + 1
        assert outcome == steps[step + 1][0]
        assert _snapshot(log.head) == steps[step + 1][1]
        assert heads.setdefault(step + 1, log.head) is log.head
    assert all(log.head is logs[0].head for log in logs)
    for version in logs[0].versions():
        record = logs[0].version(version)
        assert all(log.version(version).state is record.state for log in logs)

    # A different update object with the same id, and a different state
    # object with the same value: both miss and recompute the same result.
    step = data.draw(st.integers(0, len(updates) - 1), label="miss step")
    before, after = heads[step], heads[step + 1]
    expected_outcome, expected = steps[step + 1]
    copy = replace(updates[step])
    assert copy is not updates[step] and copy.update_id == updates[step].update_id
    restored = deserialize_state(serialize_state(before))
    for state, update in ((before, copy), (restored, updates[step]), (before, updates[step])):
        outcome, result = apply_update(state, update)
        assert outcome == expected_outcome
        assert _snapshot(result) == expected
        if outcome.committed:
            assert result is not after


def test_chaos_scenarios_leave_the_empty_state_empty():
    pristine = serialize_state(DataObjectState())
    for name in sorted(SCENARIOS):
        run_scenario(name, seed=0)
        assert serialize_state(EMPTY_STATE) == pristine, name
    assert EMPTY_STATE == DataObjectState()
