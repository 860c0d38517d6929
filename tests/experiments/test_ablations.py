"""Tests for the ablation experiments and the net-builder knobs behind them."""

import numpy as np
import pytest

from repro.dspn import solve_steady_state
from repro.errors import ParameterError
from repro.experiments.ablations import (
    run_ablation_clock,
    run_ablation_selection,
    run_ablation_server,
    run_ablation_threshold,
    run_ablation_ticks,
)
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net


class TestBuilderKnobs:
    def test_unknown_selection_rejected(self, six_version_parameters):
        with pytest.raises(ParameterError, match="selection policy"):
            build_rejuvenation_net(six_version_parameters, selection="psychic")

    def test_unknown_clock_rejected(self, six_version_parameters):
        with pytest.raises(ParameterError, match="clock kind"):
            build_rejuvenation_net(six_version_parameters, clock="quartz")

    def test_exponential_clock_is_ctmc(self, six_version_parameters):
        net = build_rejuvenation_net(six_version_parameters, clock="exponential")
        assert solve_steady_state(net).method == "ctmc"

    def test_oracle_selects_compromised_when_available(self, six_version_parameters):
        net = build_rejuvenation_net(six_version_parameters, selection="oracle")
        marking = net.marking({"Pmh": 4, "Pmc": 2, "Pac": 1, "Prc": 1})
        w1 = net.transitions["Trj1"].weight_in(marking)
        w2 = net.transitions["Trj2"].weight_in(marking)
        assert w1 / (w1 + w2) > 0.999

    def test_lost_ticks_flush_activation(self, six_version_parameters):
        net = build_rejuvenation_net(six_version_parameters, lost_ticks=True)
        # a blocked tick: module failed (g2 false), activation pending
        marking = net.marking({"Pmh": 5, "Pmf": 1, "Ptr": 1, "Pac": 1})
        trt = net.transitions["Trt"]
        assert net.is_enabled(trt, marking)
        after = net.fire(trt, marking)
        assert after["Pac"] == 0

    def test_deferred_ticks_keep_activation(self, six_version_parameters):
        net = build_rejuvenation_net(six_version_parameters, lost_ticks=False)
        marking = net.marking({"Pmh": 5, "Pmf": 1, "Ptr": 1, "Pac": 1})
        after = net.fire(net.transitions["Trt"], marking)
        assert after["Pac"] == 1


class TestAblationOrderings:
    def test_selection_ablation_ordering(self):
        report = run_ablation_selection()
        values = {row[0]: row[2] for row in report.rows}
        assert values["oracle"] > values["uniform"] > values["anti-oracle"]

    def test_server_ablation_single_is_the_headline(self):
        # single-server is the calibrated semantics: 4v headline ~0.8223
        report = run_ablation_server()
        values = {row[0]: row[1] for row in report.rows}
        assert abs(values["single"] - 0.8223487) < 1e-4

    def test_clock_ablation_ordering(self):
        report = run_ablation_clock()
        values = {row[0]: row[2] for row in report.rows}
        assert values["deterministic"] > values["exponential"]

    def test_tick_ablation_negligible_at_defaults(self):
        report = run_ablation_ticks()
        values = {row[0]: row[1] for row in report.rows}
        assert np.isclose(
            values["deferred (paper)"], values["lost"], atol=1e-4
        )

    def test_threshold_ablation_uses_same_net(self):
        report = run_ablation_threshold()
        assert len(report.rows) == 2
        assert report.rows[0][1] != report.rows[1][1]
