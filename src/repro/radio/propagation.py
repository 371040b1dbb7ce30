"""Radio propagation models.

The paper's simulations map link distance straight to a PHY rate via Table 1
(:class:`ThresholdPropagation`). For robustness studies we also provide a
log-distance path-loss model with lognormal shadowing whose SNR is quantized
onto the same rate ladder (:class:`LogDistancePropagation`). Both expose the
same small interface, so every layer above (simulator, scenario generation,
association algorithms) is propagation-agnostic.

:meth:`PropagationModel.rate_matrix` is the one place an (AP, user) rate
matrix is built; ``link_rate`` is the scalar reference it equals bit for bit.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.radio.geometry import Point
from repro.radio.rates import RateTable, dot11a_table


#: AP-user pairs per block of whole AP rows (at least one): small blocks
#: stay in cache and keep the bulk kernel's scratch out of the peak RSS.
_BLOCK_PAIRS = 1 << 16

#: Half-width, in spacings of a squared threshold, of the band recounted
#: with ``math.hypot``. Squared distances err by ~3 spacings and
#: ``math.hypot`` by an ulp, so outside the band both decide alike.
_GUARD_ULPS = 16


def _xy(points: np.ndarray) -> np.ndarray:
    return np.asarray(points, dtype=float).reshape(-1, 2)


class PropagationModel(ABC):
    """Maps an (AP position, user position) pair to link quality."""

    @property
    @abstractmethod
    def rate_table(self) -> RateTable:
        """The discrete rate ladder links are quantized onto."""

    @abstractmethod
    def link_rate(self, ap: Point, user: Point) -> float | None:
        """Max PHY rate of the link in Mbps, or ``None`` if unreachable."""

    @abstractmethod
    def signal_strength(self, ap: Point, user: Point) -> float:
        """Received signal strength in dBm (used by the SSA baseline)."""

    def rate_matrix(self, ap_xy: np.ndarray, user_xy: np.ndarray) -> np.ndarray:
        """``(n_aps, n_users)`` link rates in Mbps, 0.0 where out of range.

        ``ap_xy`` and ``user_xy`` are ``(n, 2)`` coordinates. This default
        asks :meth:`link_rate` pair by pair.
        """
        aps = [Point(x, y) for x, y in _xy(ap_xy).tolist()]
        users = [Point(x, y) for x, y in _xy(user_xy).tolist()]
        rates = [[self.link_rate(ap, user) or 0.0 for user in users] for ap in aps]
        return np.array(rates, dtype=float).reshape(len(aps), len(users))

    def in_range(self, ap: Point, user: Point) -> bool:
        return self.link_rate(ap, user) is not None

    @property
    def max_range(self) -> float:
        """Conservative upper bound on reachable distance, in meters."""
        return self.rate_table.max_range


@dataclass(frozen=True)
class ThresholdPropagation(PropagationModel):
    """Deterministic distance-threshold model (the paper's model).

    The link rate is the highest table rate whose distance threshold covers
    the link; signal strength decays log-linearly with distance so that
    "strongest signal" and "nearest AP" agree, as they do in the paper.
    """

    table: RateTable = field(default_factory=dot11a_table)
    tx_power_dbm: float = 20.0
    path_loss_exponent: float = 3.0

    @property
    def rate_table(self) -> RateTable:
        return self.table

    def link_rate(self, ap: Point, user: Point) -> float | None:
        return self.table.rate_at(ap.distance_to(user))

    def rate_matrix(self, ap_xy: np.ndarray, user_xy: np.ndarray) -> np.ndarray:
        """The rate matrix in bulk, equal to :meth:`link_rate` pair by pair.

        A pair's rate is indexed by how many thresholds (ascending, higher
        rate first at equal reach) its distance exceeds. That count is
        taken on squared distances twice, ``_GUARD_ULPS`` spacings above
        and below each squared threshold; where the two differ, the pair
        is recounted from ``math.hypot``, the distance ``rate_at`` sees.
        """
        ladder = sorted(self.table, key=lambda s: (s.max_distance_m, -s.rate_mbps))
        reach = np.array([step.max_distance_m for step in ladder])
        rates_by_count = np.array([step.rate_mbps for step in ladder] + [0.0])
        band = _GUARD_ULPS * np.spacing(reach * reach)
        above, below = reach * reach + band, reach * reach - band
        aps, users = _xy(ap_xy), _xy(user_xy)
        out = np.zeros((len(aps), len(users)))
        rows = max(1, _BLOCK_PAIRS // max(len(users), 1))
        for start in range(0, len(aps), rows):
            block = aps[start : start + rows]
            dx = block[:, :1] - users[:, 0]
            sq = block[:, 1:] - users[:, 1]
            sq *= sq
            dx *= dx
            sq += dx
            sure = np.zeros(sq.shape, dtype=np.int8)
            maybe = np.zeros(sq.shape, dtype=np.int8)
            for hi, lo in zip(above, below, strict=True):
                sure += sq > hi
                maybe += sq > lo
            np.take(rates_by_count, sure, out=out[start : start + len(block)])
            a, u = np.nonzero(sure != maybe)
            dx, dy = block[a, 0] - users[u, 0], block[a, 1] - users[u, 1]
            exact = list(map(math.hypot, dx.tolist(), dy.tolist()))
            out[start + a, u] = rates_by_count[np.searchsorted(reach, exact)]
        return out

    def signal_strength(self, ap: Point, user: Point) -> float:
        distance = max(ap.distance_to(user), 1.0)
        return self.tx_power_dbm - 10.0 * self.path_loss_exponent * math.log10(
            distance
        )


class LogDistancePropagation(PropagationModel):
    """Log-distance path loss with optional lognormal shadowing.

    Received power at distance ``d``::

        P_rx(d) = P_tx - PL(d0) - 10 * n * log10(d / d0) + X_sigma

    where ``X_sigma`` is a zero-mean Gaussian (dB) frozen per link — shadowing
    varies with position, not with time, matching quasi-static users. The SNR
    is quantized to the rate ladder by calibrating each rate's SNR threshold
    so that, without shadowing, the model reproduces the table's distance
    thresholds exactly.
    """

    def __init__(
        self,
        table: RateTable | None = None,
        *,
        tx_power_dbm: float = 20.0,
        path_loss_exponent: float = 3.0,
        reference_distance_m: float = 1.0,
        reference_loss_db: float = 46.7,
        noise_floor_dbm: float = -95.0,
        shadowing_sigma_db: float = 0.0,
        seed: int | None = None,
    ) -> None:
        if reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        if shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be non-negative")
        self._table = table if table is not None else dot11a_table()
        self._tx_power_dbm = tx_power_dbm
        self._exponent = path_loss_exponent
        self._d0 = reference_distance_m
        self._pl0 = reference_loss_db
        self._noise_dbm = noise_floor_dbm
        self._sigma = shadowing_sigma_db
        self._seed = seed if seed is not None else 0
        # Calibrate: the SNR needed for each rate is the SNR observed exactly
        # at that rate's distance threshold under zero shadowing.
        self._snr_thresholds = {
            step.rate_mbps: self._mean_snr_db(step.max_distance_m)
            for step in self._table
        }

    @property
    def rate_table(self) -> RateTable:
        return self._table

    def _mean_rx_dbm(self, distance_m: float) -> float:
        distance = max(distance_m, self._d0)
        loss = self._pl0 + 10.0 * self._exponent * math.log10(distance / self._d0)
        return self._tx_power_dbm - loss

    def _mean_snr_db(self, distance_m: float) -> float:
        return self._mean_rx_dbm(distance_m) - self._noise_dbm

    def _shadowing_db(self, ap: Point, user: Point) -> float:
        # Sigma is a configured constant; 0.0 is its exact "disabled"
        # sentinel, so the float comparison is intentional.
        if self._sigma == 0.0:  # replint: ignore[RPL004]
            return 0.0
        # Deterministic per-link shadowing: hash link endpoints + seed into a
        # Gaussian sample so that repeated queries on one link agree.
        import random

        key = (round(ap.x, 3), round(ap.y, 3), round(user.x, 3), round(user.y, 3))
        rng = random.Random((hash(key) ^ self._seed) & 0xFFFFFFFF)
        return rng.gauss(0.0, self._sigma)

    def snr_db(self, ap: Point, user: Point) -> float:
        """Per-link SNR including frozen shadowing."""
        return (
            self._mean_snr_db(ap.distance_to(user))
            + self._shadowing_db(ap, user)
        )

    def link_rate(self, ap: Point, user: Point) -> float | None:
        snr = self.snr_db(ap, user)
        best: float | None = None
        for rate, threshold in self._snr_thresholds.items():
            if snr >= threshold and (best is None or rate > best):
                best = rate
        return best

    def signal_strength(self, ap: Point, user: Point) -> float:
        return self._mean_rx_dbm(ap.distance_to(user)) + self._shadowing_db(
            ap, user
        )
