import numpy as np
import pytest

from geodcsim.cluster import ClusterInfo, DcStepInfo
from geodcsim.errors import ConfigError
from geodcsim.rewards import (
    CompositeReward,
    get_component,
    register_component,
    registered_components,
)


def info(cost=0.0, carbon=0.0, energy=0.0, met=0, violated=0,
         tx_cost=0.0, tx_energy=0.0, tx_emissions=0.0, deferred=0, n_dcs=2, water=0.0):
    """Split the per-DC quantities evenly over n_dcs sites."""
    per = {
        i + 1: DcStepInfo(
            energy_consumption_kwh=energy / n_dcs,
            energy_cost_usd=cost / n_dcs,
            carbon_emissions_kg=carbon / n_dcs,
            water_l=water / n_dcs,
            sla_met=met if i == 0 else 0,
            sla_violated=violated if i == 0 else 0,
        )
        for i in range(n_dcs)
    }
    return ClusterInfo(
        datacenters=per,
        transmission_cost_total_usd=tx_cost,
        transmission_energy_total_kwh=tx_energy,
        transmission_emissions_total_kg=tx_emissions,
        tasks_deferred_count=deferred,
    )


class TestComponents:
    def test_energy_price(self):
        fn = get_component("energy_price")
        assert fn(info(cost=1000.0)) == pytest.approx(-1.0)
        assert fn(info(cost=0.0)) == 0.0
        half = get_component("energy_price", normalize_factor=2000.0)
        assert half(info(cost=1000.0)) == pytest.approx(-0.5)

    def test_energy_price_default_factor(self):
        assert get_component("energy_price").normalize_factor == 1000.0

    def test_carbon_includes_transmission(self):
        fn = get_component("carbon_emissions")
        assert fn.normalize_factor == 100.0
        assert fn(info(carbon=80.0, tx_emissions=20.0)) == pytest.approx(-1.0)
        assert fn(info()) == 0.0
        assert fn(info(tx_emissions=50.0)) == pytest.approx(-0.5)

    def test_energy_includes_transmission(self):
        fn = get_component("energy_consumption")
        assert fn.normalize_factor == 1000.0
        assert fn(info(energy=900.0, tx_energy=100.0)) == pytest.approx(-1.0)
        assert fn(info()) == 0.0

    def test_transmission_cost(self):
        fn = get_component("transmission_cost")
        assert fn.normalize_factor == 10.0
        assert fn(info(tx_cost=5.0)) == pytest.approx(-0.5)
        assert fn(info(tx_cost=10.0)) == pytest.approx(2 * fn(info(tx_cost=5.0)))

    def test_transmission_emissions(self):
        fn = get_component("transmission_emissions")
        assert fn.normalize_factor == 10.0
        assert fn(info(tx_emissions=2.0)) == pytest.approx(-0.2)

    def test_water_usage(self):
        fn = get_component("water_usage")
        assert fn.normalize_factor == 1000.0
        assert fn(info(water=500.0)) == pytest.approx(-0.5)
        assert fn(info(water=500.0, n_dcs=5)) == pytest.approx(-0.5)
        assert fn(info()) == 0.0

    def test_sla_penalty(self):
        fn = get_component("sla_penalty", penalty_per_violation=5.0)
        assert fn(info(violated=3)) == pytest.approx(-15.0)
        assert get_component("sla_penalty").penalty_per_violation == 1.0
        assert get_component("sla_penalty")(info(violated=1)) == pytest.approx(-1.0)
        assert fn(info()) == 0.0

    def test_efficiency(self):
        fn = get_component("efficiency")
        assert fn(info(met=10, energy=5.0)) == pytest.approx(2.0, rel=1e-6)
        assert fn(info(met=0, energy=5.0)) == 0.0
        zero_energy = fn(info(met=1, energy=0.0))
        assert np.isfinite(zero_energy) and zero_energy == pytest.approx(1e6, rel=1e-6)

    def test_bad_factor_is_config_error(self):
        with pytest.raises(ConfigError):
            get_component("energy_price", normalize_factor=0.0)
        with pytest.raises(ConfigError):
            get_component("sla_penalty", penalty_per_violation=-1.0)


class TestRegistry:
    def test_builtin_names(self):
        assert set(registered_components()) >= {
            "energy_price", "carbon_emissions", "energy_consumption",
            "transmission_cost", "transmission_emissions", "sla_penalty", "efficiency",
            "water_usage",
        }

    def test_unknown_lookup(self):
        with pytest.raises(ConfigError):
            get_component("nope")

    def test_register_and_resolve(self):
        @register_component("test_constant")
        class ConstantReward:
            def __init__(self, value=1.0):
                self.value = value

            def __call__(self, info):
                return self.value

        try:
            assert get_component("test_constant", value=3.0)(info()) == 3.0
            with pytest.raises(ConfigError):
                register_component("test_constant", ConstantReward)
        finally:
            from geodcsim import rewards
            rewards._REGISTRY.pop("test_constant", None)


class TestComposite:
    def test_single_component_identity(self):
        comp = CompositeReward({"energy_price": {"weight": 1.0}})
        out = comp(info(cost=500.0))
        assert out.total == out.per_component_raw["energy_price"] == pytest.approx(-0.5)

    def test_weighted_sum_hand_case(self):
        comp = CompositeReward({
            "energy_price": {"weight": 0.4, "args": {"normalize_factor": 1000.0}},
            "carbon_emissions": {"weight": 0.3, "args": {"normalize_factor": 100.0}},
        })
        # raw components: -1.0 and -2.0
        out = comp(info(cost=1000.0, carbon=200.0))
        assert out.per_component_raw == pytest.approx(
            {"energy_price": -1.0, "carbon_emissions": -2.0})
        assert out.total == pytest.approx(0.4 * -1.0 + 0.3 * -2.0)

    def test_zero_weight_isolated(self):
        comp = CompositeReward({
            "energy_price": {"weight": 1.0},
            "sla_penalty": {"weight": 0.0, "args": {"penalty_per_violation": 100.0}},
        })
        out = comp(info(cost=1000.0, violated=50))
        assert out.total == pytest.approx(-1.0)
        assert out.per_component_weighted["sla_penalty"] == 0.0
        assert out.per_component_raw["sla_penalty"] == pytest.approx(-5000.0)

    def test_unknown_component_fails_at_construction(self):
        with pytest.raises(ConfigError):
            CompositeReward({"definitely_not_registered": {"weight": 1.0}})

    def test_bad_args_fail_at_construction(self):
        with pytest.raises(ConfigError):
            CompositeReward({"energy_price": {"weight": 1.0, "args": {"bogus": 1}}})

    def test_linearity_over_random_vectors(self):
        rng = np.random.default_rng(99)
        names = ["energy_price", "carbon_emissions", "transmission_cost", "sla_penalty"]
        for _ in range(200):
            weights = rng.normal(size=4)
            comp = CompositeReward({
                names[0]: {"weight": weights[0]},
                names[1]: {"weight": weights[1]},
                names[2]: {"weight": weights[2]},
                names[3]: {"weight": weights[3]},
            })
            out = comp(info(
                cost=float(rng.uniform(0, 1e5)),
                carbon=float(rng.uniform(0, 1e4)),
                tx_cost=float(rng.uniform(0, 100)),
                violated=int(rng.integers(0, 50)),
                tx_emissions=float(rng.uniform(0, 10)),
            ))
            raws = np.array([out.per_component_raw[n] for n in names])
            assert abs(out.total - float(np.dot(weights, raws))) <= 1e-12 * max(1.0, abs(out.total))

    def test_from_config_shape(self):
        doc = {
            "reward": {
                "normalize": False,
                "components": {
                    "energy_price": {"weight": 0.4, "args": {"normalize_factor": 10000}},
                    "sla_penalty": {"weight": 0.2, "args": {"penalty_per_violation": 5.0}},
                },
            }
        }
        comp = CompositeReward.from_config(doc)
        out = comp(info(cost=10000.0, violated=1))
        assert out.total == pytest.approx(0.4 * -1.0 + 0.2 * -5.0)

    def test_empty_components_rejected(self):
        with pytest.raises(ConfigError):
            CompositeReward({})

    @pytest.mark.parametrize("components, normalize, match", [
        (5, False, "components must map"),
        (["energy_price"], False, "components must map"),
        ({"energy_price": 5}, False, "component 'energy_price': must be a mapping"),
        ({"energy_price": {"weight": "x"}}, False,
         "component 'energy_price': weight must be a finite number"),
        ({"energy_price": {"weight": None}}, False,
         "component 'energy_price': weight must be a finite number"),
        ({"energy_price": {"weight": [1]}}, False,
         "component 'energy_price': weight must be a finite number"),
        ({"energy_price": {"weight": 1.0}}, "maybe", "normalize must be true or false"),
    ], ids=["components_int", "components_list", "entry_int", "weight_string", "weight_null",
            "weight_list", "normalize_string"])
    def test_malformed_composition_rejected(self, components, normalize, match):
        with pytest.raises(ConfigError, match=match):
            CompositeReward.from_config(
                {"reward": {"components": components, "normalize": normalize}})


class TestRunningNormalization:
    def test_constant_stream_sign_stable(self):
        comp = CompositeReward({"energy_price": {"weight": 1.0}}, normalize=True)
        outs = [comp(info(cost=2000.0)).total for _ in range(50)]
        # a constant negative stream never normalizes to a positive reward
        assert all(v <= 0.0 for v in outs)
        assert outs[10:] == pytest.approx([0.0] * 40)

    def test_deterministic_given_call_sequence(self):
        def run():
            comp = CompositeReward({"energy_price": {"weight": 1.0}}, normalize=True)
            return [comp(info(cost=c)).total for c in (100.0, 900.0, 400.0, 50.0)]

        assert run() == run()

    def test_normalization_changes_scale_not_validity(self):
        comp = CompositeReward({"energy_price": {"weight": 1.0}}, normalize=True)
        rng = np.random.default_rng(5)
        for _ in range(100):
            out = comp(info(cost=float(rng.uniform(0, 1e4))))
            assert np.isfinite(out.total)
