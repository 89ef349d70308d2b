# repro-lint: scope(asyncio)
"""Clean fixture for the ``asyncio`` rule's dispatcher clause: the
blocking dispatchers only ever travel as the callable handed to an
executor, and the loop's own solve path awaits."""

import asyncio

from repro.service.api import handle_request, route_get, route_post


class GoodFrontEnd:
    def __init__(self, executor):
        self._loop = asyncio.get_event_loop()
        self._executor = executor

    async def get(self, broker, path, query):
        # handed over, not called: the executor thread does the waiting
        return await self._loop.run_in_executor(
            self._executor, route_get, broker, path, query)

    async def post(self, broker, path, body):
        return await self._loop.run_in_executor(
            self._executor, route_post, broker, path, body)

    async def solve(self, broker, request):
        # what a dispatcher yields is awaited, never .result()-ed
        return await asyncio.wrap_future(broker.submit(request))

    def stdio(self, broker, envelope):
        # not an async def: blocking is this caller's business
        return handle_request(broker, envelope)
