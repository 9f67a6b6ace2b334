import csv
import re

import numpy as np
import pytest

from geodcsim.errors import ConfigError, DataError, DataFormatError
from geodcsim.network import (
    MIN_THROUGHPUT_MBPS,
    CostMatrix,
    DelayTable,
    MacroCluster,
    RegionMap,
    default_cost_matrix,
    default_delay_table,
    default_region_map,
    delay_steps,
    packaged_table,
    transmission_cost,
    transmission_delay_s,
    transmission_emissions_kg,
    transmission_energy_kwh,
)
from geodcsim.workload import MAX_BANDWIDTH_GB

from conftest import tiny_network


class TestCostMatrix:
    def test_same_region_is_free(self):
        matrix, _, region_map = tiny_network()
        assert transmission_cost(matrix, region_map, 10.0, "US-CAL-CISO", "US-CAL-CISO") == 0.0

    def test_cross_region_rate(self):
        matrix, _, region_map = tiny_network()
        # us-west-1 -> us-east-1 at 0.02 USD/GB
        assert transmission_cost(matrix, region_map, 10.0, "US-CAL-CISO", "US-NY-NYIS") == pytest.approx(0.20)

    def test_zero_bandwidth(self):
        matrix, _, region_map = tiny_network()
        assert transmission_cost(matrix, region_map, 0.0, "US-CAL-CISO", "DE-LU") == 0.0

    def test_unmapped_location(self):
        matrix, _, region_map = tiny_network()
        with pytest.raises(ConfigError):
            transmission_cost(matrix, region_map, 1.0, "NOWHERE", "DE-LU")

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(DataError):
            CostMatrix(("a", "b"), np.array([[0.1, 0.2], [0.2, 0.0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(DataError):
            CostMatrix(("a", "b"), np.array([[0.0, -0.2], [0.2, 0.0]]))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("region,a,b\na,0.0,0.1\nb,0.2,0.0\n")
        m = CostMatrix.from_csv(path)
        assert m.rate("a", "b") == 0.1
        assert m.rate("b", "a") == 0.2


class TestEnergyAndEmissions:
    def test_energy_factor(self):
        assert transmission_energy_kwh(10.0) == pytest.approx(0.6)
        assert transmission_energy_kwh(1.0) == pytest.approx(0.06)
        assert transmission_energy_kwh(0.0) == 0.0

    def test_emissions_from_origin_grid(self):
        assert transmission_emissions_kg(0.6, 400.0) == pytest.approx(0.24)
        assert transmission_emissions_kg(0.0, 400.0) == 0.0
        assert transmission_emissions_kg(0.6, 0.0) == 0.0


class TestDelay:
    def test_intra_cluster_hand_case(self):
        _, delay, region_map = tiny_network()
        # same macro-cluster: 1000 Mbps / 10 ms defaults
        d = transmission_delay_s(delay, region_map, 1.0, "US-CAL-CISO", "US-NY-NYIS")
        assert d == pytest.approx(8.01, abs=1e-9)

    def test_zero_bandwidth_is_rtt_only(self):
        _, delay, region_map = tiny_network()
        d = transmission_delay_s(delay, region_map, 0.0, "US-CAL-CISO", "US-NY-NYIS")
        assert d == pytest.approx(0.010)

    def test_slow_link_hand_case(self):
        table = DelayTable({(MacroCluster.US, MacroCluster.EU): 100.0},
                           {(MacroCluster.US, MacroCluster.EU): 150.0})
        region_map = RegionMap({
            "A": ("us-east-1", MacroCluster.US),
            "B": ("eu-west-1", MacroCluster.EU),
        })
        d = transmission_delay_s(table, region_map, 10.0, "A", "B")
        assert d == pytest.approx(800.15, abs=1e-9)

    def test_missing_pair(self):
        table = DelayTable({}, {})
        region_map = RegionMap({
            "A": ("us-east-1", MacroCluster.US),
            "B": ("eu-west-1", MacroCluster.EU),
        })
        with pytest.raises(ConfigError):
            transmission_delay_s(table, region_map, 1.0, "A", "B")

    def test_delay_steps_ceiling(self):
        assert delay_steps(0.0) == 0
        assert delay_steps(8.01) == 1
        assert delay_steps(900.0) == 1
        assert delay_steps(900.1) == 2

    def test_csv_loader(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "origin_cluster,dest_cluster,throughput_mbps,rtt_ms\nUS,EU,250.0,95.0\n"
        )
        table = DelayTable.from_csv(path)
        assert table.lookup(MacroCluster.US, MacroCluster.EU) == (250.0, 95.0)
        assert table.lookup(MacroCluster.US, MacroCluster.US) == (1000.0, 10.0)

    def test_bad_throughput_rejected(self):
        with pytest.raises(DataError):
            DelayTable({(MacroCluster.US, MacroCluster.EU): 0.0},
                       {(MacroCluster.US, MacroCluster.EU): 1.0})

    @pytest.mark.parametrize("throughput, rtt", [(float("nan"), 1.0), (100.0, float("nan"))],
                             ids=["throughput", "rtt"])
    def test_nan_rejected(self, throughput, rtt):
        with pytest.raises(DataError):
            DelayTable({(MacroCluster.US, MacroCluster.EU): throughput},
                       {(MacroCluster.US, MacroCluster.EU): rtt})


    @pytest.mark.parametrize("throughput, rtt, expected", [
        (100.0, float("inf"), "RTT for US->EU must be finite"),
        (float("inf"), 1.0, "throughput for US->EU must be finite"),
        (100.0, -1.0, "RTT for US->EU must be >= 0"),
    ], ids=["rtt_inf", "throughput_inf", "rtt_negative"])
    def test_table_values_must_be_finite(self, throughput, rtt, expected):
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            DelayTable({(MacroCluster.US, MacroCluster.EU): throughput},
                       {(MacroCluster.US, MacroCluster.EU): rtt})


class TestLinearity:
    def test_cost_and_energy_linear_in_bandwidth(self):
        matrix, delay, region_map = tiny_network()
        for s in (0.5, 1.0, 7.25):
            assert transmission_cost(matrix, region_map, s, "US-CAL-CISO", "DE-LU") == pytest.approx(
                s * transmission_cost(matrix, region_map, 1.0, "US-CAL-CISO", "DE-LU"))
            assert transmission_energy_kwh(s) == pytest.approx(s * 0.06)

    def test_delay_affine_in_bandwidth(self):
        _, delay, region_map = tiny_network()
        d0 = transmission_delay_s(delay, region_map, 0.0, "US-CAL-CISO", "DE-LU")
        d1 = transmission_delay_s(delay, region_map, 1.0, "US-CAL-CISO", "DE-LU")
        d2 = transmission_delay_s(delay, region_map, 2.0, "US-CAL-CISO", "DE-LU")
        assert d2 - d1 == pytest.approx(d1 - d0)


class TestPackagedDefaults:
    def test_default_tables_load(self):
        matrix = default_cost_matrix()
        table = default_delay_table()
        region_map = default_region_map()
        assert "us-east-1" in matrix.regions
        assert region_map.cluster_of("SG") is MacroCluster.AP
        thr, rtt = table.lookup(MacroCluster.US, MacroCluster.AP)
        assert thr > 0 and rtt > 0

    def test_default_tables_hold_the_numbers_their_cells_write(self):
        """A CSV cell is text, which ``parsed`` reads as ``float()`` does."""
        with packaged_table("cost_matrix.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        matrix = default_cost_matrix()
        assert matrix.regions == tuple(region.strip() for region in header[1:])
        assert matrix.cost_per_gb.tolist() == [[float(v) for v in row[1:]] for row in rows]
        with packaged_table("delay_params.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        table = default_delay_table()
        assert len(table.throughput_mbps) == len(table.rtt_ms) == len(rows)
        for row in rows:
            key = (MacroCluster(row["origin_cluster"].strip()),
                   MacroCluster(row["dest_cluster"].strip()))
            values = (table.throughput_mbps[key], table.rtt_ms[key])
            assert values == (float(row["throughput_mbps"]), float(row["rtt_ms"]))
            assert all(type(v) is float for v in values)

    def test_region_map_csv(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("location_code,cloud_region,macro_cluster\nX,us-east-1,US\n")
        rm = RegionMap.from_csv(path)
        assert rm.region_of("X") == "us-east-1"
        with pytest.raises(ConfigError):
            rm.region_of("Y")


class TestBadCsvRows:
    """Each bad row of a network table is one ``DataError`` naming the file and row."""

    @pytest.mark.parametrize("loader, text, row", [
        (RegionMap, "location_code,cloud_region,macro_cluster\nX,us-east-1,US\nY,us-east-1\n", 3),
        (RegionMap, "location_code,cloud_region,macro_cluster\n\nX,us-east-1,US\nY,us-east-1\n", 4),
        (DelayTable, "origin_cluster,dest_cluster,throughput_mbps,rtt_ms\nUS,EU,250.0\n", 2),
        (DelayTable, "origin_cluster,dest_cluster,throughput_mbps,rtt_ms\nUS\n", 2),
        (CostMatrix, "region,a,b\na,0,1\n\n", 3),
        (CostMatrix, "region,a,b\na,0,1\nb,0\n", 3),
        (CostMatrix, "region,a,b\na,0,1,2\nb,1,0\n", 2),
    ], ids=["region_map_short", "region_map_short_after_blank_line", "delay_short", "delay_label_only", "cost_blank",
            "cost_too_few_cells", "cost_too_many_cells"])
    def test_short_or_blank_row(self, tmp_path, loader, text, row):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: row {row}: "):
            loader.from_csv(path)

    @pytest.mark.parametrize("loader, text, row", [
        (RegionMap, "location_code,cloud_region,macro_cluster\nX,us-east-1,US,EU\n", 2),
        (RegionMap, "location_code,cloud_region,macro_cluster\nX,us-east-1,US\nY,a,EU,\n", 3),
        (DelayTable, "origin_cluster,dest_cluster,throughput_mbps,rtt_ms\nUS,EU,300,90,7\n", 2),
    ], ids=["region_map_extra_cell", "region_map_empty_extra_cell", "delay_extra_cell"])
    def test_row_longer_than_the_header(self, tmp_path, loader, text, row):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: row {row}: 1 cells past"):
            loader.from_csv(path)

    @pytest.mark.parametrize("loader, text, expected", [
        (RegionMap, "location_code,cloud_region,macro_cluster\nX,us-east-1,US\n"
                    "Z,us-east-1,US\nX,eu-central-1,EU\n", "row 4: repeats location_code 'X'"),
        (DelayTable, "origin_cluster,dest_cluster,throughput_mbps,rtt_ms\nUS,EU,300,90\n"
                     "EU,US,300,90\nUS,EU,250,80\n", "row 4: repeats US->EU"),
    ], ids=["region_map", "delay"])
    def test_repeated_key(self, tmp_path, loader, text, expected):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {expected}')}$"):
            loader.from_csv(path)

    @pytest.mark.parametrize("loader, text, expected", [
        (CostMatrix, "region,a,b\na,1,1\nb,1,0\n", "cost matrix diagonal must be 0"),
        (CostMatrix, "region,a,b\na,0,-1\nb,1,0\n", "cost matrix entries must be >= 0"),
        (DelayTable, "origin_cluster,dest_cluster,throughput_mbps,rtt_ms\nUS,EU,0,90\n",
         "throughput for US->EU must be > 0"),
        (CostMatrix, "region,a,a\na,0,1\na,2,0\n",
         "regions must be named once each, got ['a', 'a']"),
        (DelayTable, "origin_cluster,dest_cluster,throughput_mbps,rtt_ms\nUS,EU,1e-320,90\n",
         "throughput for US->EU must be >= 0.001"),
    ], ids=["cost_diagonal", "cost_negative", "delay_zero_throughput", "cost_region_twice",
            "delay_throughput_below_the_floor"])
    def test_table_value_error_names_the_file(self, tmp_path, loader, text, expected):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {expected}')}$"):
            loader.from_csv(path)


@pytest.mark.parametrize("loader, name", [
    (CostMatrix, "cost_matrix.csv"), (DelayTable, "delay_params.csv"), (RegionMap, "region_map.csv"),
], ids=["cost", "delay", "region_map"])
def test_bytes_that_are_no_text_name_the_file(tmp_path, loader, name):
    """A byte 0xff in a packaged table's copy leaked a UnicodeDecodeError."""
    path = tmp_path / name
    text = packaged_table(name).read_bytes()
    path.write_bytes(text[:40] + b"\xff" + text[40:])
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't "
                                              "decode byte 0xff in position 40: "):
        loader.from_csv(path)


def test_throughput_floor_keeps_the_largest_transfer_finite():
    """A table may hold 1e-3 Mbps; a task of the largest size then takes finite steps."""
    table = DelayTable({(MacroCluster.US, MacroCluster.EU): MIN_THROUGHPUT_MBPS},
                       {(MacroCluster.US, MacroCluster.EU): 1e308})
    region_map = RegionMap({"A": ("a", MacroCluster.US), "B": ("b", MacroCluster.EU)})
    assert delay_steps(transmission_delay_s(table, region_map, MAX_BANDWIDTH_GB, "A", "B")) > 0


@pytest.mark.parametrize("row, field", [
    ("US,EU,250,inf", "rtt_ms"), ("US,EU,250,1e400", "rtt_ms"), ("US,EU,inf,90", "throughput_mbps"),
], ids=["rtt_inf", "rtt_1e400", "throughput_inf"])
def test_infinite_delay_value_is_refused_at_load(tmp_path, row, field):
    """An infinite RTT loaded, and the first remote transfer then raised OverflowError
    in ``delay_steps``."""
    path = tmp_path / "delay.csv"
    path.write_text(f"origin_cluster,dest_cluster,throughput_mbps,rtt_ms\n{row}\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: bad row 2: {field} must be finite$"):
        DelayTable.from_csv(path)


def test_unparsable_cost_names_the_file_line_and_cell(tmp_path):
    path = tmp_path / "cost.csv"
    path.write_text("region,a,b\na,0,1\nb,x,0\n")
    expected = f"{path}: row 3: cost: could not convert string to float: 'x'"
    with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
        CostMatrix.from_csv(path)
