"""Channel models, classification, and the wiretap-to-GP transform."""

import numpy as np
import pytest

from wtgp.channels import (
    GpModel,
    WiretapModel,
    analogous_gpbc,
    classify,
    default_state_dist,
    informed_lift,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from wtgp.errors import (
    AlphabetMismatchError,
    ChannelFormatError,
    RowSumError,
    ShapeError,
)
from wtgp.pmf import FinitePmf


def bsc(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def product_wiretap(p1=0.1, p2=0.3, pz=0.25, **kw):
    """Y1, Y2, Z independent BSC outputs given X."""
    law = np.einsum("xa,xb,xc->xabc", bsc(p1), bsc(p2), bsc(pz))
    return WiretapModel(law=law, **kw)


class TestModelValidation:
    def test_wiretap_shape(self):
        with pytest.raises(ShapeError):
            WiretapModel(law=np.full((2, 2, 2), 0.25))

    def test_wiretap_row_sums(self):
        law = np.full((2, 2, 2, 2), 0.2)
        with pytest.raises(ValueError):
            WiretapModel(law=law)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_law_entry(self, bad):
        law = np.einsum("xa,xb,xc->xabc", bsc(0.1), bsc(0.3), bsc(0.25))
        law[1, 0, 1, 0] = bad
        with pytest.raises(ValueError, match=r"wiretap law has a non-finite entry at cell \(1, 0, 1, 0\)"):
            WiretapModel(law=law)
        with pytest.raises(ValueError, match="gp law has a non-finite entry"):
            GpModel(state_dist=FinitePmf([0.5, 0.5]), law=np.moveaxis(law, 3, 1))

    def test_gp_state_alphabet(self):
        law = np.full((2, 2, 2, 1), 0.5)
        with pytest.raises(ShapeError):
            GpModel(state_dist=FinitePmf([1 / 3] * 3), law=law)

    def test_sizes_and_point_to_point(self):
        m = product_wiretap()
        assert (m.x_size, m.y1_size, m.y2_size, m.z_size) == (2, 2, 2, 2)
        assert not m.point_to_point
        pp = WiretapModel(law=np.einsum("xa,xc->xac", bsc(0.1), bsc(0.2))[:, :, None, :])
        assert pp.point_to_point

    def test_z_given_x(self):
        m = product_wiretap(pz=0.25)
        np.testing.assert_allclose(m.z_given_x(), bsc(0.25), atol=1e-15)

    def test_default_state_dist_uniform_input(self):
        m = product_wiretap(pz=0.25)
        np.testing.assert_allclose(default_state_dist(m).mass, [0.5, 0.5], atol=1e-15)


class TestClassify:
    def test_copy_channel_is_semi_deterministic(self):
        law = np.zeros((2, 2, 2, 2))
        for x in range(2):
            law[x, x] = np.full((2, 2), 0.25)
        flags = classify(WiretapModel(law=law))
        assert flags.semi_deterministic
        np.testing.assert_array_equal(flags.deterministic_map, [0, 1])

    def test_noisy_y1_not_semi_deterministic(self):
        assert not classify(product_wiretap(p1=0.1)).semi_deterministic

    def test_gp_deterministic_in_state_pair(self):
        # y1 = x xor z: deterministic given the (x, z) cell
        law = np.zeros((2, 2, 2, 1))
        for x in range(2):
            for z in range(2):
                law[x, z, x ^ z, 0] = 1.0
        flags = classify(GpModel(state_dist=FinitePmf.uniform(2), law=law))
        assert flags.semi_deterministic
        np.testing.assert_array_equal(flags.deterministic_map, [[0, 1], [1, 0]])

    def test_degraded_chain_recovers_kernel(self):
        kern = np.array([[0.8, 0.2], [0.3, 0.7]])
        law = np.einsum("xa,ab,xc->xabc", bsc(0.1), kern, bsc(0.25))
        flags = classify(WiretapModel(law=law))
        assert flags.physically_degraded
        assert flags.pd_residual <= 1e-12
        np.testing.assert_allclose(flags.degrading_kernel, kern, atol=1e-9)

    def test_conditionally_independent_y2_not_degraded(self):
        # Y2 drawn from X independently of Y1 given X: no single kernel
        # p(y2 | y1) reproduces the product law when Y1 is noisy.
        flags = classify(product_wiretap(p1=0.1, p2=0.3))
        assert not flags.physically_degraded
        assert flags.pd_residual > 1e-6

    def test_gp_degraded(self):
        kern = np.array([[0.9, 0.1], [0.2, 0.8]])
        law = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for z in range(2):
                y1 = x ^ z
                law[x, z, y1] = kern[y1]
        flags = classify(GpModel(state_dist=FinitePmf.uniform(2), law=law))
        assert flags.semi_deterministic
        assert flags.physically_degraded
        np.testing.assert_allclose(flags.degrading_kernel, kern, atol=1e-9)


class TestAnalogousGpbc:
    def test_conditionally_independent_z_divides_out(self):
        m = product_wiretap(p1=0.1, p2=0.3, pz=0.25)
        g = analogous_gpbc(m)
        want = np.einsum("xa,xb->xab", bsc(0.1), bsc(0.3))
        for z in range(2):
            np.testing.assert_allclose(g.law[:, z], want, atol=1e-12)
        np.testing.assert_allclose(g.state_dist.mass, [0.5, 0.5], atol=1e-15)
        assert g.filled_cells == ()

    def test_hand_bayes_with_correlated_state(self):
        # z copies y1, so q(y1, y2 | x, z) = 1{y1 = z} * p(y2 | x)
        law = np.einsum("xa,xb,ac->xabc", bsc(0.1), bsc(0.3), np.eye(2))
        g = analogous_gpbc(WiretapModel(law=law))
        for x in range(2):
            for z in range(2):
                want = np.zeros((2, 2))
                want[z] = bsc(0.3)[x]
                np.testing.assert_allclose(g.law[x, z], want, atol=1e-12)

    def test_zero_state_cells_filled_and_flagged(self):
        # z = x exactly: p(z|x) vanishes off the diagonal
        law = np.einsum("xa,xb,xc->xabc", bsc(0.1), bsc(0.3), np.eye(2))
        g = analogous_gpbc(WiretapModel(law=law))
        assert set(g.filled_cells) == {(0, 1), (1, 0)}
        np.testing.assert_allclose(g.law[0, 1], np.full((2, 2), 0.25), atol=1e-15)

    def test_explicit_state_dist_kept(self):
        m = product_wiretap()
        q = FinitePmf([0.7, 0.3])
        assert analogous_gpbc(m, q).state_dist == q

    def test_state_alphabet_mismatch(self):
        with pytest.raises(ShapeError):
            analogous_gpbc(product_wiretap(), FinitePmf([1 / 3] * 3))

    def test_metadata_propagates(self):
        m = product_wiretap(informed_receiver=True, coop_capacity=0.5)
        g = analogous_gpbc(m)
        assert g.informed_receiver and g.coop_capacity == 0.5


class TestInformedLift:
    def test_wiretap_lift_marginal_recovers_law(self):
        m = product_wiretap()
        lifted = informed_lift(m)
        assert not lifted.informed_receiver
        assert lifted.y1_size == m.y1_size * m.z_size
        back = np.zeros_like(m.law)
        for y1 in range(m.y1_size):
            for z in range(m.z_size):
                back[:, y1, :, z] = lifted.law[:, y1 * m.z_size + z, :, z]
        np.testing.assert_allclose(back, m.law, atol=1e-15)

    def test_lift_pairs_y1_with_state(self):
        # under the lift, receiver 1's letter determines z
        m = product_wiretap()
        lifted = informed_lift(m)
        for z in range(m.z_size):
            for y1 in range(m.y1_size):
                pair = y1 * m.z_size + z
                other = lifted.law[:, pair, :, 1 - z]
                assert np.abs(other).max() == 0.0

    def test_gp_lift(self):
        g = analogous_gpbc(product_wiretap())
        lifted = informed_lift(g)
        assert lifted.y1_size == g.y1_size * g.z_size
        assert not lifted.informed_receiver


class TestJsonRoundTrip:
    def test_wiretap_round_trip(self, tmp_path):
        m = product_wiretap(informed_receiver=True)
        path = tmp_path / "chan.json"
        save_model(m, path)
        back = load_model(path)
        assert isinstance(back, WiretapModel)
        np.testing.assert_array_equal(back.law, m.law)
        assert back.informed_receiver

    def test_gp_round_trip(self, tmp_path):
        g = analogous_gpbc(
            WiretapModel(
                law=np.einsum("xa,xb,xc->xabc", bsc(0.1), bsc(0.3), np.eye(2))
            )
        )
        path = tmp_path / "gp.json"
        save_model(g, path)
        back = load_model(path)
        assert isinstance(back, GpModel)
        np.testing.assert_array_equal(back.law, g.law)
        assert back.filled_cells == g.filled_cells
        np.testing.assert_array_equal(back.state_dist.mass, g.state_dist.mass)

    def test_bad_kind(self):
        with pytest.raises(ChannelFormatError):
            model_from_dict({"kind": "mystery"})

    def test_missing_alphabets(self):
        with pytest.raises(ChannelFormatError):
            model_from_dict({"kind": "wiretap", "law": []})

    def test_law_shape_mismatch(self):
        doc = model_to_dict(product_wiretap())
        doc["alphabets"]["y2"] = 3
        with pytest.raises(AlphabetMismatchError):
            model_from_dict(doc)

    def test_negative_entry(self):
        doc = model_to_dict(product_wiretap())
        doc["law"][0][0][0][0] = -0.1
        with pytest.raises(ChannelFormatError):
            model_from_dict(doc)

    def test_row_sum_error(self):
        doc = model_to_dict(product_wiretap())
        doc["law"][0][0][0][0] += 0.5
        with pytest.raises(RowSumError):
            model_from_dict(doc)

    def test_near_one_rows_renormalized(self):
        doc = model_to_dict(product_wiretap())
        doc["law"][0][0][0][0] += 1e-10
        m = model_from_dict(doc)
        rows = m.law.reshape(m.x_size, -1).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-15)

    def test_gp_requires_state_dist(self):
        doc = model_to_dict(analogous_gpbc(product_wiretap()))
        del doc["state_dist"]
        with pytest.raises(ChannelFormatError):
            model_from_dict(doc)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ChannelFormatError):
            load_model(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ChannelFormatError):
            load_model(path)
