"""Table 2: leakage-detection efficacy of ERASER and the baselines.

Reports false negatives, false positives, LRC usage and the data-leakage
population after short (70-round) and long (210-round) runs for Always-LRC,
ERASER, ERASER+M, MLR-only, Staggered Always-LRC and GLADIATOR+M — the same
policy line-up as the paper's Table 2 (its "Ours" column).
"""

from _common import ExperimentConfig, current_scale, emit, format_table, run_config, run_once, save

from repro.experiments import leakage_equilibrium

POLICIES = ("always-lrc", "eraser", "eraser+m", "mlr-only", "staggered", "gladiator+m")


def test_table2_detection_efficacy(benchmark):
    scale = current_scale()
    shots = scale.shots(250)
    short_rounds = scale.rounds(70)
    long_rounds = scale.rounds(210)
    # One declarative config describes the workload; the short and long runs
    # differ only in their execution budget, and the policy line-up is a
    # sweep axis.  run_config executes on the sweep engine, so the rows are
    # bit-identical to a SweepSpec grid over the same points.
    base = ExperimentConfig.from_dict(
        {
            "name": "table2",
            "code": {"name": "surface", "distance": 7},
            "noise": {"preset": "paper", "p": 1e-3, "leakage_ratio": 0.1},
            "execution": {"shots": shots, "rounds": short_rounds, "seed": 2,
                          "decoded": False},
        }
    )
    axes = {"policy.name": list(POLICIES)}

    def workload():
        short = run_config(base, axes)
        long = run_config(
            base.override("execution.shots", max(50, shots // 2)).override(
                "execution.rounds", long_rounds
            ),
            axes,
        )
        return short, long

    short, long = run_once(benchmark, workload)
    rows = []
    for short_row, long_row in zip(short, long):
        rows.append(
            {
                "policy": short_row["policy"],
                "FN/round": short_row["fn_per_round"],
                "FP/round": short_row["fp_per_round"],
                "LRC/round": short_row["lrcs_per_round"],
                "Leak-short (1e-3)": 1e3 * leakage_equilibrium(short_row["dlp_per_round"]),
                "Leak-long (1e-3)": 1e3 * leakage_equilibrium(long_row["dlp_per_round"]),
            }
        )
    emit("Table 2: leakage-detection efficacy (surface d=7)", format_table(rows))
    save("table2_efficacy", {"shots": shots, "rounds": [short_rounds, long_rounds]}, rows)

    by_policy = {row["policy"]: row for row in rows}
    # Qualitative Table 2 structure:
    #  * Always-LRC has no false negatives but the largest LRC bill,
    #  * MLR-only misses the most leakage (highest FN of the detectors),
    #  * GLADIATOR uses fewer LRCs than ERASER.
    assert by_policy["always-lrc"]["FN/round"] == 0
    assert by_policy["always-lrc"]["LRC/round"] > 10 * by_policy["eraser+M"]["LRC/round"]
    assert by_policy["mlr-only+M"]["FN/round"] >= by_policy["eraser+M"]["FN/round"]
    assert by_policy["gladiator+M"]["LRC/round"] < by_policy["eraser+M"]["LRC/round"]
