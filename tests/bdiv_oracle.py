"""The order route the library ran before it tried m = 0 first: test oracle only.

- `leq` runs one homogenized double description for every pair, where the
  library answers `True` with no DD when a1_rho <= a2_rho at every ray of
  the fan of `toric.on_one_fan`, so that m = 0 lies in P_{D2 - D1}.

Not collected by pytest (no `test_` prefix).
"""
from __future__ import annotations

from toricbdiv import dd, toric
from toricbdiv.bdiv import CartierB


def leq(b1: CartierB, b2: CartierB) -> bool:
    """b1 <= b2: psi_1 - psi_2 + <m, .> >= 0 for some linear functional m, that is,
    P_{D2 - D1} = {m : <m, v_rho> >= a1_rho - a2_rho} is nonempty on one fan."""
    fan, a1, a2 = toric.on_one_fan(b1.incarnation, b2.incarnation)
    _, rays = dd.homogenized_rays([(r, x - y) for r, x, y in zip(fan.rays, a1, a2)], fan.dim)
    return any(r[-1] > 0 for r in rays)
