# repro-lint: scope(asyncio)
"""Violation fixture for the ``asyncio`` rule's dispatcher clause: the
blocking HTTP dispatchers called straight from a coroutine."""

from repro.service import api
from repro.service.api import handle_request, route_get


class BadFrontEnd:
    async def get(self, broker, path, query):
        return route_get(broker, path, query)  # waits on .result() inside

    async def post(self, broker, path, body):
        return api.route_post(broker, path, body)  # attribute spelling too

    async def stdio(self, broker, envelope):
        return handle_request(broker, envelope)  # the sync driver itself
