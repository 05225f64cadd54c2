"""Show how one unit of volume paces along A-B-C (9 and 12 minute links).

With 60-minute periods the volume splits 0.85/0.15 over A-B and the capacity
charge counts each period-crossing flow half on each side, giving the familiar
0.925 on A-B and 0.25 on B-C one period later.
"""

from pathlib import Path

from railflow.scenario import load_scenario, report_capacity_csv, run

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "three_station_line.json"


def main():
    output = run(load_scenario(SCENARIO))
    model, values = output.model, output.result.values

    print("objective:", round(output.result.objective, 6))
    link, route = model.positions["link"]["B-C"], model.positions["route"]["A-C-r1"]
    for t in (1, 2):
        dep = values[model.var("dep", "A-C-r1", t)]
        # arrivals at C are the inflow over B-C: within period t, or crossing
        # from t - 1 (lookup finds no crossing from period 0, which has no variables)
        inflow = (model.lookup("direct", link, t, route), model.lookup("next", link, t - 1, route))
        arrivals = sum(values[idx] for idx in inflow if idx >= 0)
        print(f"period {t}: departures {dep:.2f}, arrivals {arrivals:.2f}")
    print()
    print(report_capacity_csv(output.capacity).decode(), end="")


if __name__ == "__main__":
    main()
