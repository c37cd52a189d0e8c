"""Table 5: GLADIATOR-over-ERASER reduction factors across code families.

For the surface code, the triangular colour code, a hypergraph-product code
and a two-block cyclic (BPC-style) code, reports the LRC-count, data-leakage
population and QEC-cycle-time reduction factors of GLADIATOR+M relative to
ERASER+M.  Cycle times come from the SWAP-LRC latency model, matching the
paper's methodology of converting average LRC counts into latency overhead.
"""

from _common import current_scale, emit, format_table, run_config, run_once, save

from repro.circuits import CycleTimeModel
from repro.experiments import make_code, reduction_factor
from repro.noise import paper_noise

FAMILIES = (("surface", 7), ("color", 7), ("hgp", None), ("bpc", None))


def test_table5_code_family_reduction_factors(benchmark):
    scale = current_scale()
    shots = scale.shots(200)
    rounds = scale.rounds(80)
    noise = paper_noise(p=1e-3, leakage_ratio=0.1)

    def workload():
        results = {}
        for family, distance in FAMILIES:
            config = {
                "name": "table5_codes",
                "code": {"name": family, "distance": distance},
                "noise": {"preset": "paper", "p": 1e-3, "leakage_ratio": 0.1},
                "execution": {"shots": shots, "rounds": rounds, "seed": 55,
                              "decoded": False},
            }
            rows = run_config(config, {"policy.name": ["eraser+m", "gladiator+m"]})
            results[family] = (make_code(family, distance), {row["policy"]: row for row in rows})
        return results

    results = run_once(benchmark, workload)

    table_rows = []
    for family, (code, by_policy) in results.items():
        eraser, gladiator = by_policy["eraser+M"], by_policy["gladiator+M"]
        cycle_model = CycleTimeModel(code, noise)
        eraser_cycle = cycle_model.round_duration_ns(eraser["lrcs_per_round"])
        gladiator_cycle = cycle_model.round_duration_ns(gladiator["lrcs_per_round"])
        table_rows.append(
            {
                "code": code.name,
                "LRC reduction": reduction_factor(
                    eraser["lrcs_per_round"], gladiator["lrcs_per_round"]
                ),
                "DLP reduction": reduction_factor(eraser["mean_dlp"], gladiator["mean_dlp"]),
                "cycle-time reduction": eraser_cycle / gladiator_cycle,
                "eraser LRC/round": eraser["lrcs_per_round"],
                "gladiator LRC/round": gladiator["lrcs_per_round"],
            }
        )
    emit("Table 5: reduction factors of GLADIATOR+M over ERASER+M", format_table(table_rows))
    save("table5_codes", {"shots": shots, "rounds": rounds}, table_rows)

    by_family = {row["code"].split("_")[0]: row for row in table_rows}
    # Paper shape: clear LRC and cycle-time gains on the surface, colour and
    # HGP codes.  On the dense BPC-style code our richer background-noise
    # model erodes the advantage to rough parity (documented deviation).
    for family in ("surface", "color", "hgp"):
        assert by_family[family]["LRC reduction"] > 1.0
        assert by_family[family]["cycle-time reduction"] > 1.0
    assert by_family["bpc"]["LRC reduction"] > 0.7
