"""Dynamic steady-state scheduling (section 5.5): phase-based LP re-solving
and the autonomous bandwidth-centric protocol on trees."""
