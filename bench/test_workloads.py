"""The seeded job generator: same seed, same jobs; new seed, new inputs; no repeats."""
from workloads import WORKLOADS, JobStream

PASSES = 8


def job_lists(workload, seed, passes=PASSES):
    stream = JobStream(workload, seed)
    out = [stream.once]
    for _ in range(passes):
        jobs = stream.next_pass()
        if jobs is None:
            break
        out.append(jobs)
    return out


def test_same_seed_gives_identical_job_lists():
    for workload in WORKLOADS:
        assert job_lists(workload, 3) == job_lists(workload, 3)


def test_different_seed_gives_different_inputs():
    for workload in WORKLOADS:
        a = [(j.kind, j.args) for p in job_lists(workload, 3) for j in p]
        b = [(j.kind, j.args) for p in job_lists(workload, 4) for j in p]
        assert a != b
        assert len(set(a) & set(b)) < len(a) // 2


def test_no_input_repeats_within_a_run():
    for workload in WORKLOADS:
        for seed in (0, 1, 2):
            inputs = [(j.kind, j.args) for p in job_lists(workload, seed, passes=40) for j in p]
            assert len(inputs) == len(set(inputs)), workload


def test_every_pass_has_the_same_slots():
    for workload in WORKLOADS:
        passes = job_lists(workload, 5)[1:]
        assert len(passes) >= 7
        shapes = {tuple(j.kind for j in p) for p in passes}
        assert len(shapes) == 1, workload


def test_known_defect_jobs_are_off_lattice_j():
    for workload in WORKLOADS:
        for p in job_lists(workload, 6):
            for j in p:
                if j.known_defect:
                    assert workload == "series_q" and j.kind == "j_function"
                    assert j.args[0].denominator > 1
