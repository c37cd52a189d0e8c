"""Figure 9: false negatives, false positives and LRC counts per policy.

Surface code, d = 7, p = 1e-3, leakage ratio 0.1 (the paper's Figure 9
configuration).  The paper reports GLADIATOR+M reducing false positives by
~1.56x and LRC insertions by ~1.53x relative to ERASER+M at a ~1.16x increase
in false negatives; GLADIATOR-D+M pushes the FP/LRC reductions further.
"""

from _common import (
    CLOSED_LOOP_POLICIES,
    SweepSpec,
    current_scale,
    emit,
    format_table,
    run_once,
    run_sweep,
    save,
)


def test_fig09_speculation_accuracy(benchmark):
    scale = current_scale()
    shots = scale.shots(300)
    rounds = scale.rounds(70)
    spec = SweepSpec(
        name="fig09_speculation_accuracy",
        distances=(7,),
        error_rates=(1e-3,),
        leakage_ratios=(0.1,),
        policies=CLOSED_LOOP_POLICIES,
        shots=shots,
        rounds=rounds,
        seed=9,
    )

    def workload():
        return run_sweep(spec)

    rows = run_once(benchmark, workload)
    table_rows = [
        {
            "policy": row["policy"],
            "FN/round": row["fn_per_round"],
            "FP/round": row["fp_per_round"],
            "LRC/round": row["lrcs_per_round"],
        }
        for row in rows
    ]
    emit("Figure 9: speculation accuracy (surface d=7, p=1e-3, lr=0.1)", format_table(table_rows))
    save("fig09_speculation_accuracy", {"shots": shots, "rounds": rounds}, table_rows)

    by_policy = {row["policy"]: row for row in rows}
    eraser = by_policy["eraser+M"]
    gladiator = by_policy["gladiator+M"]
    deferred = by_policy["gladiator-d+M"]
    # Paper shape: GLADIATOR variants cut FPs and LRCs, at slightly more FNs.
    assert gladiator["fp_per_round"] < eraser["fp_per_round"]
    assert deferred["fp_per_round"] < gladiator["fp_per_round"]
    assert gladiator["lrcs_per_round"] < eraser["lrcs_per_round"]
    assert deferred["lrcs_per_round"] < eraser["lrcs_per_round"]
    assert gladiator["fn_per_round"] >= eraser["fn_per_round"]
