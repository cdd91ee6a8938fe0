package shard

import "repro/internal/server"

// ServerConfig tunes the router's HTTP front: the same hardened
// server.Config, with the same defaults, bvserve uses — so the router
// and its shards agree on every limit, k included.
type ServerConfig = server.Config

// NewServer fronts router with the hardened HTTP stack every bvserve
// runs: /search (parsed and validated like bvserve's, answered with
// the partial-coverage keys), /stats with the per-shard rows, /healthz
// live-probing the fleet, /readyz, and the middleware chain — URL
// limit, load shedding, panic recovery, request timeout, request log.
func NewServer(router *Router, cfg ServerConfig) *server.Server {
	return server.NewRouted(router, func() any { return router.Stats() }, cfg)
}
