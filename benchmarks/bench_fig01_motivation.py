"""Figure 1(b,c): the motivating comparison of ERASER and GLADIATOR.

Panel (b) compares false negatives, false positives and LRC utilisation;
panel (c) tracks the data-leakage population over 100d rounds.  The paper
uses d = 11; the quick configuration runs d = 7 to stay laptop-friendly and
the paper-scale preset restores d = 11.
"""

from _common import SweepSpec, current_scale, emit, format_series, format_table, run_once, run_sweep, save


def test_fig01_motivation(benchmark):
    scale = current_scale()
    distance = 7 if scale.name != "paper" else 11
    shots = scale.shots(250)
    rounds = scale.rounds(120)
    spec = SweepSpec(
        name="fig01_motivation",
        distances=(distance,),
        error_rates=(1e-3,),
        leakage_ratios=(0.1,),
        policies=("eraser+m", "gladiator+m", "ideal"),
        shots=shots,
        rounds=rounds,
        seed=1,
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
            "final DLP": row["final_dlp"],
        }
        for row in rows
    ]
    emit(f"Figure 1(b): speculation comparison (surface d={distance})", format_table(table_rows))
    sample_points = list(range(0, rounds, max(1, rounds // 10)))
    emit(
        f"Figure 1(c): data leakage population (surface d={distance})",
        format_series(
            sample_points,
            {row["policy"]: [float(row["dlp_per_round"][r]) for r in sample_points] for row in rows},
            x_label="round",
        ),
    )
    save("fig01_motivation", {"distance": distance, "shots": shots, "rounds": rounds}, table_rows)

    by_policy = {row["policy"]: row for row in rows}
    assert by_policy["gladiator+M"]["fp_per_round"] < by_policy["eraser+M"]["fp_per_round"]
    assert by_policy["gladiator+M"]["lrcs_per_round"] < by_policy["eraser+M"]["lrcs_per_round"]
    assert by_policy["ideal+M"]["mean_dlp"] <= by_policy["gladiator+M"]["mean_dlp"]
