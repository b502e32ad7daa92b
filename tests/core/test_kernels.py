"""Unit tests for the per-face flux kernels (Eqs. 3-4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    FLOPS_PER_CELL,
    FLOPS_PER_FLUX,
    FLUXES_PER_CELL,
    FluidProperties,
    face_flux_scalar,
    face_flux_with_derivatives,
)
from repro.core.kernels import FluxScratch, face_flux, upwind_select
from repro.core.stencil import VERTICAL, XY_CONNECTIONS, Connection, interior_slices, opposite
from repro.core.sweep import PaddedLayout
from repro.core.transmissibility import Transmissibility, padded_trans_fields
from repro.workloads import make_geomodel

G = 9.80665
MU = 5e-5
#: face_flux_scalar's face arguments, in order
FACE_KEYS = ("p_k", "p_l", "z_k", "z_l", "rho_k", "rho_l", "trans")


class TestScalarFlux:
    def test_no_gravity_simple(self):
        # dPhi = p_l - p_k = -1e5 < 0 -> upwind rho_l
        f = face_flux_scalar(
            p_k=2e7, p_l=1.99e7, z_k=0.0, z_l=0.0,
            rho_k=700.0, rho_l=710.0, trans=2e-13, gravity=G, viscosity=MU,
        )
        expected = 2e-13 * (710.0 / MU) * (-1e5)
        assert f == pytest.approx(expected, rel=1e-14)

    def test_upwind_switches_with_sign(self):
        kw = dict(z_k=0.0, z_l=0.0, rho_k=700.0, rho_l=710.0,
                  trans=1.0, gravity=G, viscosity=1.0)
        f_pos = face_flux_scalar(p_k=1.0, p_l=2.0, **kw)   # dPhi = +1
        f_neg = face_flux_scalar(p_k=2.0, p_l=1.0, **kw)   # dPhi = -1
        assert f_pos == pytest.approx(700.0)   # rho_K
        assert f_neg == pytest.approx(-710.0)  # rho_L

    def test_gravity_term(self):
        # equal pressures; dPhi = rho_avg * g * dz
        f = face_flux_scalar(
            p_k=1e7, p_l=1e7, z_k=0.0, z_l=10.0,
            rho_k=700.0, rho_l=700.0, trans=1.0, gravity=G, viscosity=1.0,
        )
        dphi = 700.0 * G * 10.0
        assert f == pytest.approx(700.0 * dphi)

    def test_zero_potential_zero_flux(self):
        f = face_flux_scalar(
            p_k=1e7, p_l=1e7, z_k=3.0, z_l=3.0,
            rho_k=700.0, rho_l=712.0, trans=5.0, gravity=G, viscosity=MU,
        )
        assert f == 0.0

    def test_antisymmetry(self):
        """F_LK computed from L's perspective equals -F_KL exactly."""
        args = dict(trans=3.3e-13, gravity=G, viscosity=MU)
        f_kl = face_flux_scalar(1.0e7, 1.2e7, 5.0, 9.0, 701.0, 703.0, **args)
        f_lk = face_flux_scalar(1.2e7, 1.0e7, 9.0, 5.0, 703.0, 701.0, **args)
        assert f_lk == -f_kl

    def test_scales_linearly_with_transmissibility(self):
        kw = dict(p_k=1e7, p_l=1.1e7, z_k=0.0, z_l=1.0,
                  rho_k=700.0, rho_l=705.0, gravity=G, viscosity=MU)
        f1 = face_flux_scalar(trans=1e-13, **kw)
        f2 = face_flux_scalar(trans=2e-13, **kw)
        assert f2 == pytest.approx(2 * f1, rel=1e-14)


def statement(data, dtype, *, collapsed=False, inv_mu=1.0 / MU, target="dp"):
    """:func:`face_flux` on *data* cast to *dtype*, its flux written to
    the scratch column *target* (or a separate array for ``None``)."""
    data = {k: np.asarray(v).astype(dtype) for k, v in data.items()}
    if collapsed:
        data["z_l"] = data["z_k"]  # one object: the collapsed branch
    s = FluxScratch.empty(data["p_k"].shape, dtype)
    flux = np.empty(data["p_k"].shape, dtype) if target is None else getattr(s, target)
    lam_k, lam_l = (data[k] * dtype(inv_mu) for k in ("rho_k", "rho_l"))
    face_flux(
        s, data["p_k"], data["p_l"], data["z_k"], data["z_l"],
        data["rho_k"], data["rho_l"], lam_k, lam_l, data["trans"], flux,
        dtype(G),
    )
    return flux


class TestArrayFlux:
    """The statement over arrays of faces, against the scalar
    restatement and against itself."""

    @pytest.fixture
    def face_data(self):
        rng = np.random.default_rng(3)
        n = 257
        return dict(
            p_k=1e7 + 1e6 * rng.standard_normal(n),
            p_l=1e7 + 1e6 * rng.standard_normal(n),
            z_k=10.0 * rng.random(n),
            z_l=10.0 * rng.random(n),
            rho_k=700.0 + rng.random(n),
            rho_l=700.0 + rng.random(n),
            trans=1e-13 * (0.5 + rng.random(n)),
        )

    def test_matches_scalar(self, face_data):
        """X-Y faces: the collapsed branch, one elevation per face."""
        face_data["z_l"] = face_data["z_k"]
        out = statement(face_data, np.float64, collapsed=True)
        for i in range(0, 257, 17):
            expected = face_flux_scalar(
                face_data["p_k"][i], face_data["p_l"][i],
                face_data["z_k"][i], face_data["z_l"][i],
                face_data["rho_k"][i], face_data["rho_l"][i],
                face_data["trans"][i], G, MU,
            )
            assert out[i] == pytest.approx(expected, rel=1e-13)

    def test_out_parameter(self, face_data):
        """The flux target may be a scratch column (``dp``, or ``a`` on
        the collapsed branch) or an array of its own: same bytes."""
        for collapsed, column in ((False, "dp"), (True, "a")):
            got = [
                statement(face_data, np.float64, collapsed=collapsed, target=t)
                for t in (column, None)
            ]
            assert got[0].tobytes() == got[1].tobytes()

    def test_antisymmetry_vectorized(self, face_data):
        fwd = statement(face_data, np.float64)
        rev = statement(dict(
            p_k=face_data["p_l"], p_l=face_data["p_k"],
            z_k=face_data["z_l"], z_l=face_data["z_k"],
            rho_k=face_data["rho_l"], rho_l=face_data["rho_k"],
            trans=face_data["trans"],
        ), np.float64)
        np.testing.assert_array_equal(fwd, -rev)

    def test_float32(self, face_data):
        out = statement(face_data, np.float32)
        ref = statement(face_data, np.float64)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=2e-4, atol=1e-12)


def select(dphi, lam_k, lam_l):
    """:func:`upwind_select` on float64 arrays broadcast from the inputs."""
    dphi, lam_k, lam_l = np.broadcast_arrays(
        *(np.array(x, np.float64) for x in (dphi, lam_k, lam_l))
    )
    out = np.empty(dphi.shape)
    upwind_select(np.empty(dphi.shape, np.uint64), dphi, lam_k.copy(), lam_l.copy(), out)
    return out


class TestUpwindSelect:
    """The select's edge cases of Eq. 4's 'otherwise' (the sign cases on
    the mobility are ``tests/core/test_fluid.py::TestUpwindMobility``)."""

    def test_zero_potential_picks_neighbour_branch(self):
        # Eq. 4's 'otherwise' covers dPhi == 0 (flux is zero regardless),
        # either signed zero
        assert select([0.0, -0.0], 350.0, 400.0).tolist() == [400.0, 400.0]

    def test_nan_potential_picks_neighbour_branch(self):
        assert select([np.nan], 350.0, 400.0).tolist() == [400.0]


class TestFaceFluxStatement:
    """The one production statement: every backend's bytes come from it."""

    @pytest.fixture
    def face_data(self):
        rng = np.random.default_rng(5)
        n = 257
        data = dict(
            p_k=1e7 + 1e6 * rng.standard_normal(n),
            p_l=1e7 + 1e6 * rng.standard_normal(n),
            z_k=10.0 * rng.random(n),
            z_l=10.0 * rng.random(n),
            rho_k=700.0 + rng.random(n),
            rho_l=700.0 + rng.random(n),
            trans=1e-13 * (0.5 + rng.random(n)),
        )
        data["p_l"][::9] = data["p_k"][::9]  # pressure-equal faces
        return data

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-13), (np.float32, 2e-4)])
    def test_within_rounding_of_the_oracle(self, face_data, dtype, rtol):
        flux = statement(face_data, dtype)
        oracle = [
            face_flux_scalar(*(face_data[k][i] for k in FACE_KEYS), G, MU)
            for i in range(flux.size)
        ]
        np.testing.assert_allclose(flux, oracle, rtol=rtol, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hoisted_mobility_is_select_then_multiply(self, face_data, dtype):
        """Selecting ``rho * (1/mu)`` is bit-identical to selecting
        ``rho`` and multiplying by ``1/mu`` per face (the DSD step 10)."""
        d = {k: v.astype(dtype) for k, v in face_data.items()}
        dphi = (d["p_l"] - d["p_k"]) + (
            (d["rho_k"] * ((d["z_l"] - d["z_k"]) * dtype(G)))
            + (d["rho_l"] * ((d["z_l"] - d["z_k"]) * dtype(G)))
        ) * dtype(0.5)
        rho = np.where(dphi > 0.0, d["rho_k"], d["rho_l"])
        literal = ((rho * dtype(1.0 / MU)) * d["trans"]) * dphi
        assert statement(face_data, dtype).tobytes() == literal.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_collapsed_branch_on_a_shared_elevation(self, face_data, dtype):
        """X-Y faces (equal elevations): the collapsed branch's fluxes
        added to ``+0.0`` give the full sequence's bytes."""
        face_data["z_l"] = face_data["z_k"].copy()  # equal, two objects
        full = statement(face_data, dtype)
        collapsed = statement(face_data, dtype, collapsed=True)
        assert (0.0 + collapsed).tobytes() == (0.0 + full).tobytes()

    @pytest.mark.parametrize("collapsed", [True, False], ids=["collapsed", "full"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_warm_call_allocates_no_array(self, dtype, collapsed):
        """Everything a call allocates is a few view objects, the same
        at 1 000 and 100 000 lanes: no temporary array and no cast
        buffer, which NumPy capped at 8 192 elements when the upwind
        compare wrote bools into an unsigned buffer (9 640 B at 13 331
        float64 lanes)."""
        import tracemalloc

        def peak(n):
            rng = np.random.default_rng(n)
            data = {k: 1.0 + rng.random(n).astype(dtype) for k in (
                "p_k", "p_l", "z_k", "z_l", "rho_k", "rho_l", "lam_k", "lam_l", "trans",
            )}
            if collapsed:
                data["z_l"] = data["z_k"]
            s = FluxScratch.empty(n, dtype)
            flux = s.a if collapsed else s.dp
            face_flux(s, **data, flux=flux, gravity=dtype(G))
            tracemalloc.start()
            try:
                face_flux(s, **data, flux=flux, gravity=dtype(G))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1_000) == peak(100_000) < 2048


@st.composite
def collapsed_faces(draw):
    """Finite ``(p_k, p_l, lam_k, lam_l, trans)`` columns of one float
    width, bounded so that no product of three overflows."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 16))
    elements = st.floats(-(2.0**40), 2.0**40, width=np.dtype(dtype).itemsize * 8)
    column = hnp.arrays(dtype, n, elements=elements)
    # equal pressures are the case the sign of a zero flux hangs on
    p_k = draw(column)
    p_l = draw(st.one_of(column, st.just(p_k.copy())))
    return dtype, p_k, p_l, draw(column), draw(column), draw(column)


@st.composite
def full_faces(draw):
    """Finite columns of one float width for the full sequence: the
    elevations and densities of both sides drawn apart (equal
    elevations, two objects, among them), bounded so that nothing
    overflows."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 16))
    width = np.dtype(dtype).itemsize * 8

    def column(low, high):
        return hnp.arrays(dtype, n, elements=st.floats(low, high, width=width))

    p_k = draw(column(-(2.0**40), 2.0**40))
    p_l = draw(st.one_of(column(-(2.0**40), 2.0**40), st.just(p_k.copy())))
    z_k = draw(column(-(2.0**12), 2.0**12))
    z_l = draw(st.one_of(column(-(2.0**12), 2.0**12), st.just(z_k.copy())))
    rho_k, rho_l, lam_k, lam_l, trans = (draw(column(0.0, 2.0**12)) for _ in range(5))
    return dtype, p_k, p_l, z_k, z_l, rho_k, rho_l, lam_k, lam_l, trans


class TestReciprocity:
    """The two premises of the padded sweep's one kernel per face pair
    (DESIGN.md §16): the reciprocal side's flux is the negated flux, on
    the collapsed X-Y branch and on the full vertical sequence, and both
    sides read one transmissibility."""

    @settings(max_examples=200, deadline=None)
    @given(collapsed_faces())
    def test_collapsed_flux_negates_from_the_other_side(self, faces):
        dtype, p_k, p_l, lam_k, lam_l, trans = faces
        z = np.zeros(p_k.size, dtype)

        def flux(p_k, p_l, lam_k, lam_l):
            s = FluxScratch.empty(p_k.shape, dtype)
            face_flux(s, p_k, p_l, z, z, lam_k, lam_l, lam_k, lam_l, trans, s.a, dtype(G))
            return s.a

        with np.errstate(under="ignore"):
            f_kl = flux(p_k, p_l, lam_k, lam_l)
            f_lk = flux(p_l, p_k, lam_l, lam_k)
        zeros = (f_kl == 0) & (f_lk == 0)
        assert (-f_kl[~zeros]).tobytes() == f_lk[~zeros].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(full_faces())
    def test_full_flux_negates_from_the_other_side(self, faces):
        """What lets DOWN subtract UP's stored flux: ``dp``, ``gz``,
        ``a <-> -b``, ``s``, ``0.5*s + dp`` all negate exactly, and both
        sides select the same ``lambda`` unless ``dphi`` is zero."""
        dtype, p_k, p_l, z_k, z_l, rho_k, rho_l, lam_k, lam_l, trans = faces

        def flux(p_k, p_l, z_k, z_l, rho_k, rho_l, lam_k, lam_l):
            s, out = FluxScratch.empty(p_k.shape, dtype), np.empty(p_k.shape, dtype)
            assert z_l is not z_k  # the full sequence
            face_flux(s, p_k, p_l, z_k, z_l, rho_k, rho_l, lam_k, lam_l, trans, out, dtype(G))
            return out

        with np.errstate(under="ignore"):
            f_kl = flux(p_k, p_l, z_k, z_l, rho_k, rho_l, lam_k, lam_l)
            f_lk = flux(p_l, p_k, z_l, z_k, rho_l, rho_k, lam_l, lam_k)
        zeros = (f_kl == 0) & (f_lk == 0)
        assert (-f_kl[~zeros]).tobytes() == f_lk[~zeros].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dims", [(9, 7, 3), (1, 9, 2)], ids=["lognormal", "1xn-strip"])
    def test_padded_trans_is_shared_by_a_face_pair(self, dims, dtype):
        """The sweep's layout keeps one field per face pair: each
        connection, UP and DOWN too, reads, one flat shift early for the
        negative member, exactly its own zero-padded face field."""
        mesh = make_geomodel(*dims, kind="lognormal", seed=4)
        trans = Transmissibility(mesh, dtype=dtype)
        layout = PaddedLayout(mesh, FluidProperties(), dtype, trans)
        own = padded_trans_fields(mesh, trans, dtype)
        for conn in XY_CONNECTIONS:
            shift = layout.shifts[conn]
            pair = conn if shift > 0 else opposite(conn)
            field = layout.trans[pair]
            lanes = np.arange(field.size).reshape(layout.padded_shape)[:, 1:-1, 1:-1]
            read = field[(lanes + min(shift, 0)).ravel()].reshape(mesh.shape_zyx)
            assert read.tobytes() == own[conn].tobytes()
            assert np.count_nonzero(field) == mesh.nz * (mesh.ny - abs(conn.offset[1])) * (
                mesh.nx - abs(conn.offset[0])
            )
        field = layout.trans[Connection.UP]
        lanes = np.arange(field.size).reshape(layout.padded_shape)[:, 1:-1, 1:-1]
        for conn in VERTICAL:
            # the planes whose cells have a conn neighbour
            local, _neighbour = interior_slices(mesh.shape_zyx, conn)
            read = field[lanes[local] + min(layout.shifts[conn], 0)]
            assert read.tobytes() == own[conn][local].tobytes()
        assert np.count_nonzero(field) == (mesh.nz - 1) * mesh.ny * mesh.nx


class TestDerivatives:
    def _fd_check(self, p_k, p_l, z_k, z_l, c_f=1e-9, rho_ref=700.0, p_ref=1e7):
        def rho(p):
            return rho_ref * np.exp(c_f * (p - p_ref))

        def flux(pk, pl):
            f, _, _ = face_flux_with_derivatives(
                pk, pl, z_k, z_l, rho(pk), rho(pl),
                trans=2e-13, gravity=G, viscosity=MU, compressibility=c_f,
            )
            return f

        _, dk, dl = face_flux_with_derivatives(
            p_k, p_l, z_k, z_l, rho(p_k), rho(p_l),
            trans=2e-13, gravity=G, viscosity=MU, compressibility=c_f,
        )
        eps = 10.0
        fd_k = (flux(p_k + eps, p_l) - flux(p_k - eps, p_l)) / (2 * eps)
        fd_l = (flux(p_k, p_l + eps) - flux(p_k, p_l - eps)) / (2 * eps)
        return (dk, fd_k), (dl, fd_l)

    def test_derivative_matches_fd_upwind_k(self):
        (dk, fd_k), (dl, fd_l) = self._fd_check(1.0e7, 1.5e7, 0.0, 2.0)
        assert dk == pytest.approx(fd_k, rel=1e-6)
        assert dl == pytest.approx(fd_l, rel=1e-6)

    def test_derivative_matches_fd_upwind_l(self):
        (dk, fd_k), (dl, fd_l) = self._fd_check(1.5e7, 1.0e7, 0.0, 2.0)
        assert dk == pytest.approx(fd_k, rel=1e-6)
        assert dl == pytest.approx(fd_l, rel=1e-6)

    def test_derivative_with_gravity_segregation(self):
        (dk, fd_k), (dl, fd_l) = self._fd_check(1.0e7, 1.0e7 + 1e5, 0.0, 50.0)
        assert dk == pytest.approx(fd_k, rel=1e-5)
        assert dl == pytest.approx(fd_l, rel=1e-5)

    def test_flux_value_matches_plain_kernel(self):
        rho_k, rho_l = 700.0, 705.0
        f, _, _ = face_flux_with_derivatives(
            1e7, 1.2e7, 0.0, 3.0, rho_k, rho_l,
            trans=1e-13, gravity=G, viscosity=MU, compressibility=1e-9,
        )
        expected = face_flux_scalar(
            1e7, 1.2e7, 0.0, 3.0, rho_k, rho_l, 1e-13, G, MU
        )
        assert f == pytest.approx(expected, rel=1e-14)


class TestFlopConstants:
    def test_paper_values(self):
        # Sec. 7.3: 14 FLOPs per flux, 10 fluxes per cell, 140 per cell
        assert FLOPS_PER_FLUX == 14
        assert FLUXES_PER_CELL == 10
        assert FLOPS_PER_CELL == 140
