"""PW traversal state machine (driven with synthetic measurements)."""

from repro.core import PwTraversal
from repro.core.traversal import disambiguate_values, suspicious_steps
from repro.memory import BLOCK_SIZE, PAGE_SIZE

PAGE = 0x400000


def _drive(traversal, oracle):
    """Run the traversal feeding matches from ``oracle(step, pw)``."""
    guard = 0
    while not traversal.finished and guard < 300:
        guard += 1
        for step in range(traversal.num_steps):
            queries = traversal.queries_for(step)
            if queries:
                matched = [oracle(step, pw) for pw in queries]
                traversal.record(step, list(queries), matched)
        traversal.advance()
    assert traversal.finished


def _block_of(address):
    return address & ~(BLOCK_SIZE - 1)


def _match(start, pw):
    """The real system's behaviour: the fetch starts at ``start`` and
    the post-interrupt drain decodes to the end of its 32-byte window,
    so a probe instrument (the byte ``pw.end - 1``) fires iff it lies
    in the start's block at or above the start."""
    instrument = pw.end - 1
    return (_block_of(instrument) == _block_of(start)
            and instrument >= start)


def _fetch_oracle(starts, span=None):
    def oracle(step, pw):
        return _match(starts[step], pw)
    return oracle


class TestByteResolution:
    def test_exact_bases_recovered_adaptive(self):
        starts = [PAGE + 0x123, PAGE + 0x124, PAGE + 0x7FF,
                  PAGE + 0x000, PAGE + 0x20]
        traversal = PwTraversal(
            num_steps=len(starts),
            page_bases=[[PAGE]] * len(starts),
            pws_per_call=8, strategy="adaptive")
        _drive(traversal, _fetch_oracle(starts, span=40))
        assert disambiguate_values(traversal.value_sets()) == starts

    def test_exact_bases_recovered_paper(self):
        starts = [PAGE + 0x31, PAGE + 0x35, PAGE + 0xF00]
        traversal = PwTraversal(
            num_steps=len(starts),
            page_bases=[[PAGE]] * len(starts),
            pws_per_call=2, strategy="paper")
        _drive(traversal, _fetch_oracle(starts, span=40))
        assert disambiguate_values(traversal.value_sets()) == starts

    def test_block_aligned_start_uses_ret_probe(self):
        starts = [PAGE + 0x40]          # exactly block-aligned
        traversal = PwTraversal(num_steps=1, page_bases=[[PAGE]],
                                pws_per_call=4)
        _drive(traversal, _fetch_oracle(starts))
        assert disambiguate_values(traversal.value_sets()) == starts

    def test_no_match_leaves_unresolved(self):
        traversal = PwTraversal(num_steps=1, page_bases=[[PAGE]],
                                pws_per_call=8)
        _drive(traversal, lambda step, pw: False)
        assert disambiguate_values(traversal.value_sets()) == [None]

    def test_paper_sweep_run_count(self):
        traversal = PwTraversal(num_steps=1, page_bases=[[PAGE]],
                                pws_per_call=2, strategy="paper")
        assert traversal.total_sweep_runs() == 64
        traversal8 = PwTraversal(num_steps=1, page_bases=[[PAGE]],
                                 pws_per_call=8, strategy="paper")
        assert traversal8.total_sweep_runs() == 16

    def test_multi_page_step(self):
        """A step with two candidate pages resolves on the right one."""
        other = PAGE + PAGE_SIZE
        starts = [other + 0x84]
        traversal = PwTraversal(num_steps=1,
                                page_bases=[[PAGE, other]],
                                pws_per_call=8)
        _drive(traversal, _fetch_oracle(starts))
        assert disambiguate_values(traversal.value_sets()) == starts

    def test_restrict_to_skips_other_steps(self):
        starts = [PAGE + 0x10, PAGE + 0x50]
        traversal = PwTraversal(num_steps=2,
                                page_bases=[[PAGE]] * 2,
                                pws_per_call=8, restrict_to={1})
        _drive(traversal, _fetch_oracle(starts))
        chosen = disambiguate_values(traversal.value_sets())
        assert chosen[0] is None
        assert chosen[1] == starts[1]


class TestSpeculationArtifacts:
    def test_two_round_pipeline_removes_artifact(self):
        """Step 0 speculatively touches step 2's block (a predicted
        branch target).  The adaptive sweep can stop on the artifact,
        so — exactly as NvSupervisor does — a second exhaustive round
        over the suspicious steps plus cross-step disambiguation must
        recover the truth."""
        starts = [PAGE + 0x200, PAGE + 0x204, PAGE + 0x80]

        def oracle(step, pw):
            real = _match(starts[step], pw)
            if step == 0:
                # speculation also fetched from PAGE+0x80 onward
                real |= _match(PAGE + 0x80, pw)
            return real

        first = PwTraversal(num_steps=3, page_bases=[[PAGE]] * 3,
                            pws_per_call=8)
        _drive(first, oracle)
        values = first.value_sets()
        chosen = disambiguate_values(values)
        retry = suspicious_steps(chosen, values)
        assert 0 in retry
        second = PwTraversal(
            num_steps=3, page_bases=[[PAGE]] * 3, pws_per_call=8,
            strategy="paper", restrict_to=retry,
            tested_preseed=[s.tested for s in first.steps])
        _drive(second, oracle)
        for index, extra in enumerate(second.value_sets()):
            if extra:
                values[index] = sorted(set(values[index]) | set(extra))
        assert disambiguate_values(values) == starts


class TestDisambiguationHelpers:
    def test_single_values_pass_through(self):
        assert disambiguate_values([[5], [9], []]) == [5, 9, None]

    def test_artifact_removed(self):
        # step 0 saw {80, 200}; 80 reappears as step 2's value
        values = [[80, 200], [204], [80]]
        assert disambiguate_values(values) == [200, 204, 80]

    def test_tolerant_matching(self):
        values = [[81, 200], [204], [80]]
        assert disambiguate_values(values)[0] == 200

    def test_no_repeat_keeps_lowest(self):
        values = [[80, 200], [204], [999]]
        assert disambiguate_values(values)[0] == 80

    def test_window_limits_lookahead(self):
        values = [[80, 200]] + [[300]] * 20 + [[80]]
        assert disambiguate_values(values, window=4)[0] == 80

    def test_suspicious_detection(self):
        chosen = [80, 204, 80, None]
        value_sets = [[80], [204], [80], []]
        flagged = suspicious_steps(chosen, value_sets)
        assert 0 in flagged          # repeats 2 steps later
        assert 3 in flagged          # unresolved
        assert 1 not in flagged
        assert 2 not in flagged      # nothing after repeats it

    def test_multi_lane_steps_not_suspicious(self):
        chosen = [80, 80]
        value_sets = [[80, 200], [80]]
        assert 0 not in suspicious_steps(chosen, value_sets)
