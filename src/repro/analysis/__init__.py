"""Analytic models: the Section 4.1 capacity analysis and its constants."""
