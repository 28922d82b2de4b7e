"""Two-tier pathology-report triage with a sensitivity-first OR-ensemble."""
