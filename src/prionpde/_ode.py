"""Fixed-step RK4, shared by the truncation horizons and support envelopes
(the moment oracle inlines it on floats); kept dependency-free on purpose."""

from __future__ import annotations

from typing import Callable


def rk4_step(f: Callable, t: float, y, dt: float):
    half = 0.5 * dt
    k1 = f(t, y)
    k2 = f(t + half, y + half * k1)
    k3 = f(t + half, y + half * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
