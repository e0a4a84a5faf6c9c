"""Reference grid screen by walking all 3^m per-query role combinations.

Test-only oracle for :func:`rankcomp.kernels.grid_screen`.  A scalar loop
over profiles and players, scoring with f's own evaluation and branch
inverse: each query is skipped, tied or taken solo (solo only where the
top opponent is below f(peak), and only with budget to spare), skipping
wins a top below f(0) and ties one at f(0), and a profile survives when
no player's best combination beats its current utility by more than the
screen's margin.
"""

import numpy as np

from rankcomp.kernels import _EQ_TOL, _MARGIN


def _best_deviation(costs, tie_share, solo_ok, zero_val):
    m = len(costs)
    best = 0.0
    for combo in range(3**m):
        cost = 0.0
        value = 0.0
        solo = False
        valid = True
        for q in range(m):
            role = combo // 3**q % 3  # 0 skip, 1 tie, 2 solo
            if role == 0:
                value += zero_val[q]
            elif role == 1:
                cost += costs[q]
                value += tie_share[q]
            else:
                valid = valid and solo_ok[q]
                cost += costs[q]
                value += 1.0
                solo = True
        if not valid or cost > 1.0 + _EQ_TOL:
            continue
        if solo and cost >= 1.0 - _EQ_TOL:
            continue
        best = max(best, value)
    return best


def screen_oracle(strat, prof, f) -> np.ndarray:
    strat = np.asarray(strat, dtype=np.float64).tolist()
    prof = np.asarray(prof, dtype=np.int64).tolist()
    f0, f_peak = float(f(0)), float(f.max_score)
    out = np.zeros(len(prof), dtype=np.uint8)
    for p, row in enumerate(prof):
        scores = [[float(f(x)) for x in strat[k]] for k in row]
        n, m = len(scores), len(scores[0])
        ok = True
        for i in range(n):
            current = 0.0
            costs, tie_share, solo_ok, zero_val = [], [], [], []
            for q in range(m):
                top, cnt = -1.0, 0
                for k in range(n):
                    if k == i:
                        continue
                    s = scores[k][q]
                    if s > top + _EQ_TOL:
                        top, cnt = s, 1
                    elif s > top - _EQ_TOL:
                        cnt += 1
                own = scores[i][q]
                if own > top + _EQ_TOL:
                    current += 1.0
                elif own > top - _EQ_TOL:
                    current += 1.0 / (cnt + 1)
                costs.append(float(f.inverse_increasing_geq(min(top, f_peak))))
                tie_share.append(1.0 / (cnt + 1))
                solo_ok.append(top < f_peak - _EQ_TOL)
                if top < f0 - _EQ_TOL:
                    zero_val.append(1.0)
                else:
                    zero_val.append(tie_share[q] if top <= f0 + _EQ_TOL else 0.0)
            if _best_deviation(costs, tie_share, solo_ok, zero_val) > current + _MARGIN:
                ok = False
                break
        out[p] = ok
    return out
