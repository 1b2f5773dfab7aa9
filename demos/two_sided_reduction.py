"""Why one-sided attacks are the only case worth analyzing.

For mean estimation only the total deviation of the poison values matters.
Any two-sided attack can therefore be merged into a one-sided attack with
exactly the same pull on the mean: repeatedly cancel the largest value on
the minority side against values on the majority side.
"""

import numpy as np

from dapmean import reduce_gba_to_bba

print("A tiny attack about reference 0: values {-0.8, +0.3}")
vals = np.array([-0.8, 0.3])
out = reduce_gba_to_bba(vals)
print(f"  deviation sum {np.sum(vals):+.2f} -> one-sided values {out}")

print()
rng = np.random.default_rng(3)
o = -0.1
vals = np.concatenate([rng.uniform(-4, o, 12), rng.uniform(o, 4, 9)])
out = reduce_gba_to_bba(vals, o, bound=4.0)
print(f"A random two-sided attack with {vals.size} values about O = {o}:")
print(f"  left values  {np.sum(vals < o)}, right values {np.sum(vals > o)}")
print(f"  deviation sum        {np.sum(vals - o):+.6f}")
print(f"  after reduction      {np.sum(out - o):+.6f}  ({out.size} values, "
      f"all {'left' if np.all(out <= o) else 'right'} of O)")

print()
print("Perfectly balanced attacks vanish entirely:")
out = reduce_gba_to_bba(np.array([-0.4, 0.4]))
print(f"  {{-0.4, +0.4}} -> {out.size} values left")
