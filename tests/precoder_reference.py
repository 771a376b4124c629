"""Frozen copy of the MMSE precoders as they were before the Gram forward
pass (``precoding._gram_forward``) became their one solve: F came from a
regularized inverse of the whitened channel scaled by its Frobenius norm,
and the SINRs and the rate from G U.  The tests compare ``mmse_precoder`` and
``fully_active_state`` against these on every reported field."""

import numpy as np

from fcarray.channel import active_channel_matrix, coupler_channel_block
from fcarray.errors import SingularGram
from fcarray.geometry import uniform_placement
from fcarray.impedance import build_block
from fcarray.precoding import GRAM_COND_LIMIT, _certified_solve, _real_inv_sqrt


def regularized_inverse(G_bar, P_max, sigma2):
    """(F, beta, alpha, Gram condition bound), ||F||_F^2 = P_max."""
    K = G_bar.shape[-2]
    alpha = K * sigma2 / P_max
    G_bar_h = np.swapaxes(G_bar.conj(), -1, -2)
    gram = G_bar @ G_bar_h + alpha * np.eye(K)
    inv, cond = _certified_solve(gram, None, GRAM_COND_LIMIT, SingularGram, "regularized Gram")
    F_hat = G_bar_h @ inv
    flat = F_hat.reshape(F_hat.shape[:-2] + (1, -1))
    sq = flat.real @ np.swapaxes(flat.real, -1, -2) + flat.imag @ np.swapaxes(flat.imag, -1, -2)
    norm = np.sqrt(sq[..., 0, 0])
    beta = np.sqrt(P_max) / np.where(norm == 0.0, np.inf, norm)
    return beta[..., None, None] * F_hat, beta, alpha, cond


def sinr_and_rate(G, U, sigma2):
    power = np.abs(G @ U) ** 2
    desired = np.diagonal(power, axis1=-2, axis2=-1)
    gamma = desired / (power.sum(axis=-1) - desired + sigma2)
    return gamma, np.sum(np.log2(1.0 + gamma), axis=-1)


def mmse_precoder(G, B, P_max, sigma2) -> dict:
    B = np.asarray(B, dtype=float)
    F, beta, _, cond = regularized_inverse(G / np.sqrt(B)[..., None, :], P_max, sigma2)
    U = F / np.sqrt(B)[..., :, None]
    sinr, rate = sinr_and_rate(G, U, sigma2)
    return {"F": F, "U": U, "sinr": sinr, "sum_rate": rate, "beta": beta, "gram_cond": cond}


def fully_active_state(spec, layout, model, P_max, sigma2) -> dict:
    placement = uniform_placement(layout)
    Re_Z = np.real(build_block(placement.positions, layout.active_positions(), model)
                   .full_matrix())
    M, N, K = layout.M, layout.N, spec.K
    h_ports = np.concatenate([active_channel_matrix(spec, layout).T[:, :, None],
                              coupler_channel_block(spec, placement.positions, layout.lam)],
                             axis=-1)
    inv_roots = _real_inv_sqrt(Re_Z)
    H = h_ports.transpose(1, 0, 2).reshape(K, -1)
    G_bar = (h_ports @ inv_roots).transpose(1, 0, 2).reshape(K, -1)
    F, beta, _, cond = regularized_inverse(G_bar, P_max, sigma2)
    U = (inv_roots @ F.reshape(M, N + 1, K)).reshape(F.shape)
    sinr, rate = sinr_and_rate(H, U, sigma2)
    return {"F": F, "U": U, "sinr": sinr, "sum_rate": rate, "beta": beta, "gram_cond": cond}
