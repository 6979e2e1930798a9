"""Naive loop-based reference implementations used as independent oracles.

Everything here is deliberately written with explicit Python loops over
indices, independent of the vectorized forward paths it checks.
"""

import math

import numpy as np

from kphead.dataset import class_signatures
from kphead.evaluate import EVAL_CHUNK, Metrics, chance_recall_estimate
from kphead.losses import BACKGROUND
from kphead.tensor import NoGrad, backward
from kphead.training import EpochLog, _batch_loss


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



def conv2d_vjp_loops(x, weight, g, groups=1, dilation=1):
    """Input, weight and bias gradients of sum(g * conv2d(x, weight, bias)),
    each output position's contribution added tap by tap."""
    c_in, h, w = x.shape
    c_out, cig, k, _ = weight.shape
    padding = dilation * (k - 1) // 2
    cog = c_out // groups
    gx = np.zeros_like(x)
    gw = np.zeros_like(weight)
    gb = np.zeros(c_out)
    for oc in range(c_out):
        grp = oc // cog
        for oy in range(h):
            for ox in range(w):
                gb[oc] += g[oc, oy, ox]
                for ic in range(cig):
                    for ky in range(k):
                        for kx in range(k):
                            iy = oy + ky * dilation - padding
                            ix = ox + kx * dilation - padding
                            if 0 <= iy < h and 0 <= ix < w:
                                up = g[oc, oy, ox]
                                gx[grp * cig + ic, iy, ix] += weight[oc, ic, ky, kx] * up
                                gw[oc, ic, ky, kx] += x[grp * cig + ic, iy, ix] * up
    return gx, gw, gb

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
    """One concentration block: grouped dilated 3x3, relu, 1x1, add input; an
    N x C x H x W ``x`` runs it on each example in turn."""
    if x.ndim == 4:
        return np.stack([residual_block_loops(ex, w3, b3, w1, b1, groups, dilation)
                         for ex in x])
    mid = conv2d_loops(x, w3, b3, groups=groups, dilation=dilation)
    mid = np.maximum(mid, 0.0)
    restored = conv2d_loops(mid, w1, b1, groups=1, dilation=1)
    return x + restored


def recorded_nodes(*roots):
    """The recorded op nodes reachable from ``roots`` that a backward pass
    runs: those with a backward closure, leaves and constants left out."""
    seen, stack = {}, list(roots)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return [t for t in seen.values() if t._backward_fn is not None]


def cross_entropy_ref(logits, target):
    m = max(logits)
    return m + math.log(sum(math.exp(v - m) for v in logits)) - logits[target]


def nearest_signature_accuracy(examples, spec):
    """Decoder oracle: classify each foreground example by nearest signature
    at its planted cells (majority vote); returns accuracy over foregrounds."""
    signatures = class_signatures(spec)
    flat_sigs = signatures.reshape(-1, spec.channels)
    classes = np.repeat(np.arange(1, spec.num_classes + 1), spec.parts_per_class)
    correct = 0
    total = 0
    for ex in examples:
        if ex.y_hat == 0:
            continue
        votes = []
        for r, col in ex.planted_points:
            fiber = ex.x.data[:, r, col]
            nearest = np.argmin(np.linalg.norm(flat_sigs - fiber, axis=1))
            votes.append(classes[nearest])
        counts = np.bincount(votes, minlength=spec.num_classes + 1)
        if int(np.argmax(counts)) == ex.class_id:
            correct += 1
        total += 1
    return correct / total if total else 0.0


def sgd_momentum_train(model, examples, cfg):
    """Textbook minibatch SGD with momentum: a zero velocity per call, then
    per batch and parameter ``v = m*v + g`` and ``w -= lr*v``.  Returns the
    epoch rows, summed as ``training.train`` sums them."""
    named = model.named_tensors()
    velocity = [np.zeros_like(t.data) for _, t in named]
    order_rng = np.random.default_rng([cfg.seed, 21])
    logs = []
    for epoch in range(1, cfg.epochs + 1):
        order = order_rng.permutation(len(examples))
        det = l_d = l_u = 0.0
        hits = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [examples[i] for i in order[start:start + cfg.batch_size]]
            for _, t in named:
                t.grad = None
            total, batch_det, batch_ld, batch_lu, batch_hits = _batch_loss(model, batch, cfg)
            backward(total)
            for (_, t), v in zip(named, velocity):
                v[...] = cfg.momentum * v + (t.grad if t.grad is not None else 0.0)
                t.data -= cfg.learning_rate * v
            det += batch_det
            l_d += batch_ld
            l_u += batch_lu
            hits += batch_hits
        n = len(examples)
        logs.append(EpochLog(epoch=epoch, det_loss=det / n, l_d=l_d / n, l_u=l_u / n,
                             acc=hits / n))
    return logs


def evaluate_loops(model, examples):
    """``evaluate``'s metrics by a Python pass over each example of each
    ``EVAL_CHUNK``-example forward pass: a running sum per metric, and
    recall as an ``any`` over the points for each planted cell."""
    correct = 0
    box_err_sum = 0.0
    box_count = 0
    hit_sum = 0
    planted_sum = 0
    fg_peaks, bg_peaks, distinct = [], [], []
    with NoGrad():
        for first in range(0, len(examples), EVAL_CHUNK):
            chunk = examples[first:first + EVAL_CHUNK]
            fwd = model.forward(*(ex.x for ex in chunk))
            preds = np.argmax(fwd.output.v_cls.data, axis=1)
            for i, ex in enumerate(chunk):
                if preds[i] == ex.class_id:
                    correct += 1
                if ex.class_id != BACKGROUND:
                    start = model.head_cfg.reg_start(ex.class_id)
                    pred_box = fwd.output.v_reg.data[i, start:start + 4]
                    box_err_sum += float(np.mean(np.abs(pred_box - ex.box_target)))
                    box_count += 1
                if fwd.points is None:
                    continue
                points = [tuple(p) for p in fwd.points[i].tolist()]
                peaks = fwd.confidences[i].tolist()
                if ex.y_hat == 1:
                    fg_peaks.append(float(np.mean(peaks)))
                    for pr, pc in ex.planted_points:
                        if any(max(abs(pr - r), abs(pc - c)) <= 1 for r, c in points):
                            hit_sum += 1
                    planted_sum += len(ex.planted_points)
                    distinct.append(len(set(points)))
                else:
                    bg_peaks.append(float(np.mean(peaks)))

    box_mae = box_err_sum / box_count if box_count else 0.0
    if fwd.points is None:
        return Metrics(correct / len(examples), box_mae, None, None, None, None, None)
    cfg = model.head_cfg
    return Metrics(
        accuracy=correct / len(examples),
        box_mae=box_mae,
        part_recall=hit_sum / planted_sum if planted_sum else 0.0,
        chance_level=chance_recall_estimate(max(len(ex.planted_points) for ex in examples),
                                            cfg.num_parts, cfg.height, cfg.width),
        fg_peak_mean=float(np.mean(fg_peaks)) if fg_peaks else 0.0,
        bg_peak_mean=float(np.mean(bg_peaks)) if bg_peaks else 0.0,
        mean_distinct_parts=float(np.mean(distinct)) if distinct else 0.0,
    )


def first_uncovered_byte(payload_size, spans):
    """The first byte of a ``payload_size``-byte parameter payload that no
    ``(offset, stop)`` span covers, or None: a boolean mask over the whole
    payload, set span by span, as ``training.load_params`` first checked
    coverage."""
    covered = np.zeros(payload_size, dtype=bool)
    for offset, stop in spans:
        covered[offset:stop] = True
    return None if covered.all() else int(np.argmin(covered))
