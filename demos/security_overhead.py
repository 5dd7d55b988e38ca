"""Tour of the security cost and risk models.

Run:  python3 demos/security_overhead.py
"""

from seeco import RiskModel, Service, default_catalog, overhead, survival

cat = default_catalog()

print("Algorithm ladders (level 1.0 = strongest = slowest)")
for service in Service:
    print(f"\n  {service.value}")
    for alg in cat.algorithms(service):
        print(f"    {alg.id}  {alg.name:10s} level {alg.level:4.2f}  "
              f"{alg.speed_mb_s:7.2f} MB/s  {alg.ref_cost_s:5.2f} s per 100 MB")

# Overhead scales linearly with data and inversely with cores and clock.
idea = cat.algorithm(Service.CONFIDENTIALITY, 1)
print("\nIDEA over 100 MB on different machines")
for cores, freq in [(1, 2.2), (2, 2.2), (1, 4.4), (8, 2.2)]:
    t = overhead(idea, cores, freq, 100.0)
    print(f"  {cores} cores @ {freq} GHz -> {t:6.2f} s")

# Weaker levels run faster but leave data exposed; a crossing payload is
# breached unless both of its services survive, each by security.survival.
model = RiskModel()
print("\nPer-task risk when output leaves the access point")
print("  conf  integ   risk")
for conf_id in (1, 3, 5):
    for integ_id in (1, 5):
        sl_c = cat.algorithm(Service.CONFIDENTIALITY, conf_id).level
        sl_i = cat.algorithm(Service.INTEGRITY, integ_id).level
        risk = 1.0 - survival(sl_c, model.lambda_conf) * survival(sl_i, model.lambda_integ)
        print(f"  {sl_c:4.2f}  {sl_i:5.2f}  {risk:6.4f}")
