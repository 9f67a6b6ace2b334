"""Inter-datacenter transmission penalties: monetary cost, energy, carbon, delay.

Cost comes from a provider-style region-to-region USD/GB matrix; delay from
empirical throughput/RTT between geographic macro-clusters (US, EU, AP, SA),
with fast intra-cluster defaults. Energy uses a flat kWh/GB intensity and
emissions are booked against the origin grid at dispatch time. The functions
take their inputs as checked: a task's bandwidth by ``Task``, the tables' rates
by ``CostMatrix`` and ``DelayTable``.

The shipped delay and cost tables are placeholders in the documented format;
replace them with measured values for serious studies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

import numpy as np

from .envdata import dict_rows
from .errors import ConfigError, DataError, DataFormatError, naming, within
from .floats import checked, parsed
from .workload import STEP

TRANSMISSION_KWH_PER_GB = 0.06
DEFAULT_INTRA_THROUGHPUT_MBPS = 1000.0
DEFAULT_INTRA_RTT_MS = 10.0
# Least throughput a delay table may hold: with a task's bandwidth at most
# workload.MAX_BANDWIDTH_GB, every transfer's delay is then a finite number of steps.
MIN_THROUGHPUT_MBPS = 1e-3


class MacroCluster(Enum):
    US = "US"
    EU = "EU"
    AP = "AP"
    SA = "SA"


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Square USD/GB matrix over named provider regions; zero on the diagonal."""

    regions: tuple
    cost_per_gb: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.cost_per_gb, dtype=np.float64)
        n = len(self.regions)
        if len(set(self.regions)) != n:
            raise DataError(f"regions must be named once each, got {list(self.regions)}")
        if mat.shape != (n, n):
            raise DataError(f"cost matrix must be {n}x{n}, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise DataError("cost matrix entries must be finite")
        if np.any(mat < 0):
            raise DataError("cost matrix entries must be >= 0")
        if np.any(np.diagonal(mat) != 0.0):
            raise DataError("cost matrix diagonal must be 0")
        mat.flags.writeable = False
        object.__setattr__(self, "cost_per_gb", mat)
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "_index", {r: i for i, r in enumerate(self.regions)})

    def rate(self, origin_region: str, dest_region: str) -> float:
        try:
            i = self._index[origin_region]
            j = self._index[dest_region]
        except KeyError as exc:
            raise ConfigError(f"region {exc.args[0]!r} not in cost matrix") from exc
        return float(self.cost_per_gb[i, j])

    @classmethod
    def from_csv(cls, path) -> "CostMatrix":
        with naming(path), open(path, newline="") as fh:
            rows = list(csv.reader(fh))
            if not rows or len(rows[0]) < 2:
                raise DataFormatError("expected a header row of region names")
            regions = [r.strip() for r in rows[0][1:]]
            mat = np.zeros((len(regions), len(regions)))
            if len(rows) - 1 != len(regions):
                raise DataFormatError(f"expected {len(regions)} data rows")
            for i, row in enumerate(rows[1:]):
                if len(row) != len(regions) + 1:  # blank, or short enough for numpy to broadcast
                    raise DataError(f"row {i + 2}: expected a label and {len(regions)} costs, "
                                    f"got {len(row)} cells")
                if row[0].strip() != regions[i]:
                    raise DataFormatError(f"row label {row[0]!r} does not match column order")
                with within(None, DataError):
                    mat[i, :] = [parsed(v, f"row {i + 2}: cost") for v in row[1:]]
            return cls(tuple(regions), mat)


@dataclass
class DelayTable:
    """Throughput (Mbps) and RTT (ms) between macro-clusters, with intra defaults."""

    throughput_mbps: dict
    rtt_ms: dict

    def __post_init__(self):
        with within(None, DataError):
            for (a, b), thr in self.throughput_mbps.items():
                what = f"throughput for {a.value}->{b.value}"
                if checked(thr, what, 0.0, lo_open=True) < MIN_THROUGHPUT_MBPS:
                    raise ValueError(f"{what} must be >= {MIN_THROUGHPUT_MBPS:g}")
            for (a, b), rtt in self.rtt_ms.items():
                checked(rtt, f"RTT for {a.value}->{b.value}", 0.0)

    def lookup(self, origin: MacroCluster, dest: MacroCluster) -> tuple[float, float]:
        if origin is dest:
            return DEFAULT_INTRA_THROUGHPUT_MBPS, DEFAULT_INTRA_RTT_MS
        key = (origin, dest)
        if key not in self.throughput_mbps or key not in self.rtt_ms:
            raise ConfigError(f"no delay parameters for {origin.value}->{dest.value}")
        return self.throughput_mbps[key], self.rtt_ms[key]

    @classmethod
    def from_csv(cls, path) -> "DelayTable":
        throughput, rtt = {}, {}
        with naming(path):
            for i, row in dict_rows(path, ("origin_cluster", "dest_cluster", "throughput_mbps",
                                           "rtt_ms")):
                with within(f"bad row {i}", DataError):
                    a = MacroCluster(row["origin_cluster"].strip())
                    b = MacroCluster(row["dest_cluster"].strip())
                    values = tuple(parsed(row[key], key) for key in ("throughput_mbps", "rtt_ms"))
                if (a, b) in throughput:
                    raise DataError(f"row {i}: repeats {a.value}->{b.value}")
                throughput[(a, b)], rtt[(a, b)] = values
            return cls(throughput, rtt)


@dataclass
class RegionMap:
    """Location code -> (cloud region, macro-cluster)."""

    mapping: dict

    def region_of(self, location_code: str) -> str:
        return self._entry(location_code)[0]

    def cluster_of(self, location_code: str) -> MacroCluster:
        return self._entry(location_code)[1]

    def _entry(self, location_code: str):
        try:
            return self.mapping[location_code]
        except KeyError as exc:
            raise ConfigError(f"location {location_code!r} has no region mapping") from exc

    @classmethod
    def from_csv(cls, path) -> "RegionMap":
        mapping = {}
        with naming(path):
            for i, row in dict_rows(path, ("location_code", "cloud_region", "macro_cluster")):
                try:
                    cluster = MacroCluster(row["macro_cluster"].strip())
                except ValueError as exc:
                    raise DataError(f"bad macro_cluster in row {i}") from exc
                code = row["location_code"].strip()
                if code in mapping:
                    raise DataError(f"row {i}: repeats location_code {code!r}")
                mapping[code] = (row["cloud_region"].strip(), cluster)
        return cls(mapping)


def transmission_cost(matrix: CostMatrix, region_map: RegionMap,
                      s_bw_gb: float, origin_loc: str, dest_loc: str) -> float:
    """USD to move ``s_bw_gb`` between locations; zero within one provider region."""
    r_orig = region_map.region_of(origin_loc)
    r_dest = region_map.region_of(dest_loc)
    if r_orig == r_dest:
        return 0.0
    return s_bw_gb * matrix.rate(r_orig, r_dest)


def transmission_energy_kwh(s_bw_gb: float) -> float:
    """Network energy for a transfer at the flat ``TRANSMISSION_KWH_PER_GB`` intensity."""
    return s_bw_gb * TRANSMISSION_KWH_PER_GB


def transmission_emissions_kg(energy_kwh: float, ci_origin_g_per_kwh: float) -> float:
    """Transfer emissions booked against the origin grid (kgCO2eq)."""
    return energy_kwh * ci_origin_g_per_kwh / 1000.0


def transmission_delay_s(table: DelayTable, region_map: RegionMap,
                         s_bw_gb: float, origin_loc: str, dest_loc: str) -> float:
    """Serialization plus propagation delay in seconds."""
    throughput, rtt = table.lookup(
        region_map.cluster_of(origin_loc), region_map.cluster_of(dest_loc)
    )
    return s_bw_gb * 8000.0 / throughput + rtt / 1000.0


def delay_steps(delay_s: float) -> int:
    """Whole simulation steps a transfer stays in transit."""
    return math.ceil(delay_s / STEP.total_seconds())


def packaged_table(name: str):
    """The path of the packaged table ``name``: ``cost_matrix.csv``, ``delay_params.csv``
    or ``region_map.csv``."""
    return resources.files("geodcsim").joinpath("data", name)


def default_cost_matrix() -> CostMatrix:
    return CostMatrix.from_csv(packaged_table("cost_matrix.csv"))


def default_delay_table() -> DelayTable:
    return DelayTable.from_csv(packaged_table("delay_params.csv"))


def default_region_map() -> RegionMap:
    return RegionMap.from_csv(packaged_table("region_map.csv"))
