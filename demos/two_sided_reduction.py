"""Why one-sided attacks are the only case worth analyzing.

For mean estimation only the total deviation of the poison values matters.
Any two-sided attack can therefore be merged into a one-sided attack with
exactly the same pull on the mean: repeatedly cancel the largest value on
the minority side against values on the majority side.
"""

import numpy as np

from dapmean import AttackTrace, reduce_gba_to_bba

print("A tiny attack about reference 0: values {-0.8, +0.3}")
trace = AttackTrace(values=np.array([-0.8, 0.3]), reference_mean=0.0)
out = reduce_gba_to_bba(trace)
print(f"  deviation sum {trace.deviation_sum:+.2f} -> one-sided values {out.values}")

print()
rng = np.random.default_rng(3)
o = -0.1
vals = np.concatenate([rng.uniform(-4, o, 12), rng.uniform(o, 4, 9)])
trace = AttackTrace(values=vals, reference_mean=o)
out = reduce_gba_to_bba(trace, bound=4.0)
print(f"A random two-sided attack with {vals.size} values about O = {o}:")
print(f"  left values  {np.sum(vals < o)}, right values {np.sum(vals > o)}")
print(f"  deviation sum        {trace.deviation_sum:+.6f}")
print(f"  after reduction      {out.deviation_sum:+.6f}  ({out.values.size} values, "
      f"all {'left' if np.all(out.values <= o) else 'right'} of O)")

print()
print("Perfectly balanced attacks vanish entirely:")
trace = AttackTrace(values=np.array([-0.4, 0.4]), reference_mean=0.0)
out = reduce_gba_to_bba(trace)
print(f"  {{-0.4, +0.4}} -> {out.values.size} values left")
