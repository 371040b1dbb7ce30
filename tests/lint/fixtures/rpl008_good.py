"""RPL008 good fixture: the pool worker is a pure function.

State goes in as the task and comes back as the return value, so
nothing the worker does has to reach the parent through shared state.
"""

from concurrent.futures import ProcessPoolExecutor


def worker(task: int) -> int:
    return task * 2


def run(tasks: list[int]) -> list[int]:
    pool = ProcessPoolExecutor()
    return list(pool.map(worker, tasks))
