"""Solar harvesting through a day, at three constant station loads.

Harvest follows a half-sine between 06:00 and 18:00 peaking at the
station's full draw. A sleeping station (0.01 units) banks nearly the
whole day; one pinned at the constant active floor (0.5) still charges;
a fully loaded one (1.0) barely breaks even and drains to empty
overnight. The ledger identity is checked at the end of each trace.
"""
import argparse
from pathlib import Path

import numpy as np

from scsim import Battery, EnergyProfile, battery_step, harvest_rates, ledger_residual
from scsim.svgplot import render_line_chart


def trace(draw: float, dt: float = 60.0):
    profile = EnergyProfile()
    batt = Battery(level=0.0)
    ts = np.arange(int(86400 / dt)) * dt
    levels = []
    for harvest in harvest_rates(profile, ts).tolist():
        battery_step(batt, harvest, draw, dt)
        levels.append(float(batt.level) / 3600.0)
    return batt, ((ts + dt) / 3600.0).tolist(), levels


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path(__file__).parent / "out")
    args = parser.parse_args()

    series = []
    print("constant draw -> end-of-day level, delivered, deficit (unit-hours)")
    for draw in (0.01, 0.5, 1.0):
        batt, hours, levels = trace(draw)
        series.append((f"draw = {draw}", hours, levels))
        residual = abs(float(np.asarray(ledger_residual(batt))))
        print(
            f"  {draw:4.2f} -> level {float(batt.level)/3600:6.3f}, "
            f"consumed {float(batt.cum_consumed)/3600:6.3f}, "
            f"deficit {float(batt.cum_deficit)/3600:6.3f}, "
            f"ledger residual {residual:.2e}"
        )

    args.out.mkdir(parents=True, exist_ok=True)
    target = args.out / "battery_day.svg"
    target.write_text(
        render_line_chart(
            series,
            title="battery level under solar harvesting",
            x_label="hour of day",
            y_label="stored energy (power-unit-hours)",
        )
    )
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
