"""Deterministic whole-stack failure drills (FoundationDB/Jepsen style).

``repro.drill`` drives the full service substrate — admission, journal,
result store, sharded workers with heartbeat failover, and the
redeployment controller's commit point — through seeded, randomized
fault schedules armed on the seams of :mod:`repro.util.faultpoints`,
then checks the system's durability contracts as explicit invariants
and shrinks any failing schedule to a minimal reproducer. See ``repro
drill --help`` and the DESIGN.md section "failure-drill engine". The
entry points live in :mod:`repro.drill.engine`.
"""
