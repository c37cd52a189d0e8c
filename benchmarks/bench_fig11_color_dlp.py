"""Figure 11: leakage population and LRC usage on the colour code.

The paper runs a distance-19 colour code for 100 QEC cycles; the quick
configuration uses distance 7 (distance 11 at paper scale) which already
exhibits the qualitative behaviour: ERASER's 50% heuristic over-triggers on
the narrow colour-code patterns, while the GLADIATOR variants insert far
fewer LRCs.
"""

from _common import SweepSpec, current_scale, emit, format_series, format_table, run_once, run_sweep, save

POLICIES = ("eraser+m", "gladiator+m", "gladiator-d+m", "ideal")


def test_fig11_color_code_dlp_and_lrc(benchmark):
    scale = current_scale()
    distance = 7 if scale.name != "paper" else 11
    shots = scale.shots(250)
    rounds = scale.rounds(100)
    spec = SweepSpec(
        name="fig11_color_dlp",
        family="color",
        distances=(distance,),
        error_rates=(1e-3,),
        leakage_ratios=(0.1,),
        policies=POLICIES,
        shots=shots,
        rounds=rounds,
        seed=11,
    )

    def workload():
        return run_sweep(spec)

    rows = run_once(benchmark, workload)
    table_rows = [
        {
            "policy": row["policy"],
            "LRC/round": row["lrcs_per_round"],
            "mean DLP": row["mean_dlp"],
            "final DLP": row["final_dlp"],
        }
        for row in rows
    ]
    emit(f"Figure 11: colour code d={distance}, {rounds} cycles", format_table(table_rows))
    sample_points = list(range(0, rounds, max(1, rounds // 10)))
    emit(
        "Figure 11(a): colour-code data leakage population",
        format_series(
            sample_points,
            {row["policy"]: [float(row["dlp_per_round"][r]) for r in sample_points] for row in rows},
            x_label="round",
        ),
    )
    save("fig11_color_dlp", {"distance": distance, "shots": shots, "rounds": rounds}, table_rows)

    by_policy = {row["policy"]: row for row in rows}
    # ERASER's heuristic over-triggers on narrow colour-code patterns; the
    # GLADIATOR variants insert fewer LRCs (Figure 11(b)).
    assert by_policy["gladiator+M"]["lrcs_per_round"] < by_policy["eraser+M"]["lrcs_per_round"]
    assert by_policy["gladiator-d+M"]["lrcs_per_round"] < by_policy["eraser+M"]["lrcs_per_round"]
    assert by_policy["ideal+M"]["mean_dlp"] <= by_policy["gladiator+M"]["mean_dlp"]
