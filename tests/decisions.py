"""Test helper: run one policy decision into freshly allocated buffers."""

from __future__ import annotations

import numpy as np


def decide_buffers(policy, ctx):
    """Call ``policy.decide_into`` as the simulator does; return ``(data_lrc, ancilla_lrc)``.

    ``ancilla_lrc`` is ``None`` unless the policy :attr:`emits_ancilla_lrc`.
    The decision is made twice, into buffers prefilled with ``False`` and
    with ``True``, and the two must agree: a policy fully overwrites its
    buffers, so stale contents never leak into a decision.
    """
    shots = ctx.pattern_ints.shape[0]
    code = policy.code
    decisions = []
    for fill in (False, True):
        data_lrc = np.full((shots, code.num_data), fill)
        ancilla_lrc = (
            np.full((shots, code.num_ancilla), fill) if policy.emits_ancilla_lrc else None
        )
        policy.decide_into(ctx, data_lrc, ancilla_lrc)
        decisions.append((data_lrc, ancilla_lrc))
    (data_lrc, ancilla_lrc), (data_again, ancilla_again) = decisions
    assert np.array_equal(data_lrc, data_again)
    assert ancilla_lrc is None or np.array_equal(ancilla_lrc, ancilla_again)
    return data_lrc, ancilla_lrc
