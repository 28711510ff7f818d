"""Workloads: ET1/DebitCredit and long design transactions (Section 2)."""
