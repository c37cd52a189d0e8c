"""Figure 4(b): logical error rate of open-loop policies vs ERASER+M.

Compares No-LRC, Always-LRC, Staggered Always-LRC and ERASER+M on decoded
surface-code memory experiments.  The paper's takeaway: structured open-loop
scheduling (staggering) narrows, but does not close, the gap to closed-loop
speculation.  Quick scale decodes d = 3 and 5; paper scale adds d = 7.
"""

from _common import SweepSpec, current_scale, emit, format_table, run_once, run_sweep, save

POLICIES = ("no-lrc", "always-lrc", "staggered", "eraser+m")


def test_fig04b_openloop_ler(benchmark):
    scale = current_scale()
    distances = [3, 5] if scale.name != "paper" else [3, 5, 7]
    shots = scale.decoded_shots(300)
    spec = SweepSpec(
        name="fig04b_openloop_ler",
        distances=tuple(distances),
        error_rates=(2e-3,),
        leakage_ratios=(0.5,),
        policies=POLICIES,
        shots=shots,
        rounds=lambda distance: 3 * distance,
        decoded=True,
        seed=4,
    )

    def workload():
        return run_sweep(spec)

    rows = run_once(benchmark, workload)
    table_rows = [
        {
            "d": row["distance"],
            "policy": row["policy"],
            "LER": row["ler"],
            "LRC/round": row["lrcs_per_round"],
            "mean DLP": row["mean_dlp"],
        }
        for row in rows
    ]
    emit("Figure 4(b): open-loop vs closed-loop logical error rate", format_table(table_rows))
    save("fig04b_openloop_ler", {"shots": shots, "p": 2e-3, "lr": 0.5}, table_rows)

    for distance in distances:
        by_policy = {
            row["policy"]: row for row in rows if row["distance"] == distance
        }
        # Unmitigated leakage is never better than the mitigated policies, and
        # the closed-loop policy never needs more LRCs than the open-loop ones.
        assert (
            by_policy["eraser+M"]["lrcs_per_round"]
            < by_policy["staggered"]["lrcs_per_round"]
            < by_policy["always-lrc"]["lrcs_per_round"]
        )
        assert by_policy["eraser+M"]["mean_dlp"] <= by_policy["no-lrc"]["mean_dlp"]
