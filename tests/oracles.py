"""Naive loop-based reference implementations used as independent oracles.

Everything here is deliberately written with explicit Python loops over
indices, independent of the vectorized forward paths it checks.
"""

import math

import numpy as np


def conv2d_loops(x, weight, bias, groups=1, dilation=1, padding=None):
    """Six-nested-loop grouped dilated cross-correlation with zero padding."""
    c_in, h, w = x.shape
    c_out, cig, k, _ = weight.shape
    if padding is None:
        padding = dilation * (k - 1) // 2
    cog = c_out // groups
    out = np.zeros((c_out, h, w))
    for oc in range(c_out):
        g = oc // cog
        for oy in range(h):
            for ox in range(w):
                acc = bias[oc]
                for ic in range(cig):
                    for ky in range(k):
                        for kx in range(k):
                            iy = oy + ky * dilation - padding
                            ix = ox + kx * dilation - padding
                            if 0 <= iy < h and 0 <= ix < w:
                                acc += weight[oc, ic, ky, kx] * x[g * cig + ic, iy, ix]
                out[oc, oy, ox] = acc
    return out


def adaptive_avg_pool_loops(x, out_len):
    """Per-bin averaging with explicitly enumerated floor/ceil boundaries."""
    c, h, w = x.shape
    out = np.zeros((c, out_len, out_len))
    for ch in range(c):
        for i in range(out_len):
            r0 = math.floor(i * h / out_len)
            r1 = math.ceil((i + 1) * h / out_len)
            for j in range(out_len):
                c0 = math.floor(j * w / out_len)
                c1 = math.ceil((j + 1) * w / out_len)
                total = 0.0
                for r in range(r0, r1):
                    for cc in range(c0, c1):
                        total += x[ch, r, cc]
                out[ch, i, j] = total / ((r1 - r0) * (c1 - c0))
    return out


def pool_bin_ranges(extent, out_len):
    return [(math.floor(i * extent / out_len), math.ceil((i + 1) * extent / out_len))
            for i in range(out_len)]


def linear_loops(x, weight, bias):
    """Hand-rolled dot products for an affine map."""
    m, d = weight.shape
    out = np.zeros(m)
    for i in range(m):
        acc = bias[i]
        for j in range(d):
            acc += weight[i, j] * x[j]
        out[i] = acc
    return out


def gather_loops(x, points):
    """Index-loop fiber collection."""
    c = x.shape[0]
    out = np.zeros((len(points), c))
    for k, (r, col) in enumerate(points):
        for ch in range(c):
            out[k, ch] = x[ch, r, col]
    return out


def argmax2d_loops(map2d):
    """First row-major maximum by explicit scan."""
    h, w = map2d.shape
    best = (0, 0)
    best_val = map2d[0, 0]
    for r in range(h):
        for c in range(w):
            if map2d[r, c] > best_val:
                best_val = map2d[r, c]
                best = (r, c)
    return best[0], best[1], float(best_val)


def tmr_loops(raw, alpha, epsilon):
    """Per-element truncated-maximum squash, one map at a time."""
    out = np.zeros_like(raw)
    for k in range(raw.shape[0]):
        c_m = raw[k].max()
        denom = max(0.0, (c_m + alpha) - 1.0) + 1.0 + epsilon
        for r in range(raw.shape[1]):
            for c in range(raw.shape[2]):
                out[k, r, c] = max(0.0, (raw[k, r, c] + alpha) / denom)
    return out


def tmr_vjp_loops(raw, alpha, epsilon, g):
    """Gradient of sum(g * tmr(raw)) w.r.t. raw, one element at a time.

    Each map's maximum c_m is read at its first row-major maximum, which
    gets the denominator term on top of its own numerator term.
    """
    grad = np.zeros_like(raw)
    for k in range(raw.shape[0]):
        pr, pc, c_m = argmax2d_loops(raw[k])
        denom = max(0.0, (c_m + alpha) - 1.0) + 1.0 + epsilon
        denom_term = 0.0
        for r in range(raw.shape[1]):
            for c in range(raw.shape[2]):
                if (raw[k, r, c] + alpha) / denom > 0.0:
                    grad[k, r, c] += g[k, r, c] / denom
                    denom_term -= g[k, r, c] * (raw[k, r, c] + alpha) / denom ** 2
        if c_m + alpha > 1.0:
            grad[k, pr, pc] += denom_term
    return grad


def smooth_l1_ref(a, b):
    d = a - b
    return 0.5 * d * d if abs(d) < 1.0 else abs(d) - 0.5


def residual_block_loops(x, w3, b3, w1, b1, groups, dilation):
    """One concentration block: grouped dilated 3x3, relu, 1x1, add input."""
    mid = conv2d_loops(x, w3, b3, groups=groups, dilation=dilation)
    mid = np.maximum(mid, 0.0)
    restored = conv2d_loops(mid, w1, b1, groups=1, dilation=1)
    return x + restored


def cross_entropy_ref(logits, target):
    m = max(logits)
    return m + math.log(sum(math.exp(v - m) for v in logits)) - logits[target]
