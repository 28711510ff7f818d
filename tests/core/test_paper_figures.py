"""E6: the worked example of Figures 3-1, 3-2 and 3-3, exactly."""

from repro.harness.experiments import run_paper_figure_states


class TestPaperFigures:
    def setup_method(self):
        self.states = run_paper_figure_states()

    def test_figure_3_2_server_1(self):
        assert self.states.figure_3_2["Server 1"] == [
            (1, 1, "yes"), (2, 1, "yes"), (3, 1, "yes"),
            (3, 3, "yes"), (4, 3, "no"), (5, 3, "yes"),
            (6, 3, "yes"), (7, 3, "yes"), (8, 3, "yes"), (9, 3, "yes"),
        ]

    def test_figure_3_2_server_2(self):
        assert self.states.figure_3_2["Server 2"] == [
            (1, 1, "yes"), (2, 1, "yes"), (3, 1, "yes"),
            (6, 3, "yes"), (7, 3, "yes"),
        ]

    def test_figure_3_2_server_3_has_partial_record_10(self):
        assert self.states.figure_3_2["Server 3"] == [
            (3, 3, "yes"), (4, 3, "no"), (5, 3, "yes"),
            (8, 3, "yes"), (9, 3, "yes"), (10, 3, "yes"),
        ]

    def test_figure_3_3_server_1(self):
        assert self.states.figure_3_3["Server 1"] == [
            (1, 1, "yes"), (2, 1, "yes"), (3, 1, "yes"),
            (3, 3, "yes"), (4, 3, "no"), (5, 3, "yes"),
            (6, 3, "yes"), (7, 3, "yes"), (8, 3, "yes"), (9, 3, "yes"),
            (9, 4, "yes"), (10, 4, "no"),
        ]

    def test_figure_3_3_server_2(self):
        assert self.states.figure_3_3["Server 2"] == [
            (1, 1, "yes"), (2, 1, "yes"), (3, 1, "yes"),
            (6, 3, "yes"), (7, 3, "yes"),
            (9, 4, "yes"), (10, 4, "no"),
        ]

    def test_figure_3_3_server_3_untouched(self):
        # Server 3 was unavailable during the second recovery, so it
        # still holds the partially written record 10 at epoch 3.
        assert self.states.figure_3_3["Server 3"] == [
            (3, 3, "yes"), (4, 3, "no"), (5, 3, "yes"),
            (8, 3, "yes"), (9, 3, "yes"), (10, 3, "yes"),
        ]

    def test_replicated_log_contents_match_section_3_1_2(self):
        # "The replicated log shown in Figure 3-1 consists of records
        # in the intervals (<1,1> <2,1>), (<3,3>), and (<5,3> <9,3>)"
        # — records {1, 2, 3, 5, 6, 7, 8, 9}; 4 is not-present and the
        # partially written 10 is masked by the epoch-4 guard.
        assert self.states.replicated_log_contents == [1, 2, 3, 5, 6, 7, 8, 9]
