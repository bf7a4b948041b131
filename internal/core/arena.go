package core

import "mediaworm/internal/flit"

// Arena is a struct-of-arrays backing store for router hot state. A fabric
// builder allocates one arena sized for all of its routers, and every router
// carves its per-port/per-VC tables — input VCs, output VCs, flit buffer
// rings, link-health flags, VC occupancy masks, port counters, and
// crossbar-request nodes — as contiguous subslices of the shared slabs. The
// result is a handful of large allocations per fabric instead of
// O(routers × ports × VCs) small ones, and same-kind state packed
// contiguously across routers, which is what keeps a 256-router torus
// cache-friendly. See DESIGN.md §18.
//
// An arena is single-goroutine, like the routers it backs. Carving is
// construction-time only; the hot path never touches the arena itself.
type Arena struct {
	inv    []inVC      // backing slab; the owning routers serialize their views
	outv   []outVC     // backing slab; the owning routers serialize their views
	flits  []flit.Flit // backing slab; ring contents serialize through the owning routers
	health []bool      // backing slab; the owning routers serialize their views
	occ    [][2]uint64 // backing slab; derived occupancy and idle masks, recomputed on restore
	pstats []PortStats // backing slab; the owning routers serialize their views
	reqs   []reqNode   // backing slab; request queues serialize through the owning routers
}

// arenaShape returns the per-router slab demand for a config.
func arenaShape(cfg Config) (pv, flits, health, reqCap int) {
	pv = cfg.Ports * cfg.VCs
	flits = pv * (cfg.BufferDepth + cfg.StageDepth)
	health = 2 * cfg.Ports // linkUp + stalled
	// Request nodes: at most one live request per input VC, plus headroom
	// for same-cycle retire-and-resubmit churn before stage-3 compaction.
	reqCap = 2 * pv
	return
}

// NewArena preallocates slabs for `routers` routers of identical shape.
// Routers built with cfg.Arena pointing here draw from the slabs; once the
// slabs run dry further routers fall back to private allocations, so an
// undersized arena degrades to the old layout rather than failing.
func NewArena(routers int, cfg Config) *Arena {
	if routers < 1 {
		routers = 1
	}
	pv, flits, health, reqCap := arenaShape(cfg)
	return &Arena{
		inv:    make([]inVC, 0, routers*pv),
		outv:   make([]outVC, 0, routers*pv),
		flits:  make([]flit.Flit, 0, routers*flits),
		health: make([]bool, 0, routers*health),
		occ:    make([][2]uint64, 0, routers*3*cfg.Ports), // input, output and idle mask per port
		pstats: make([]PortStats, 0, routers*cfg.Ports),
		reqs:   make([]reqNode, 0, routers*reqCap),
	}
}

// grabInv carves n input VCs, falling back to a private allocation when the
// slab is exhausted (or the arena is nil).
func (a *Arena) grabInv(n int) []inVC {
	if a == nil || len(a.inv)+n > cap(a.inv) {
		return make([]inVC, n)
	}
	off := len(a.inv)
	a.inv = a.inv[:off+n]
	return a.inv[off : off+n : off+n]
}

func (a *Arena) grabOutv(n int) []outVC {
	if a == nil || len(a.outv)+n > cap(a.outv) {
		return make([]outVC, n)
	}
	off := len(a.outv)
	a.outv = a.outv[:off+n]
	return a.outv[off : off+n : off+n]
}

func (a *Arena) grabFlits(n int) []flit.Flit {
	if a == nil || len(a.flits)+n > cap(a.flits) {
		return make([]flit.Flit, n)
	}
	off := len(a.flits)
	a.flits = a.flits[:off+n]
	return a.flits[off : off+n : off+n]
}

func (a *Arena) grabHealth(n int) []bool {
	if a == nil || len(a.health)+n > cap(a.health) {
		return make([]bool, n)
	}
	off := len(a.health)
	a.health = a.health[:off+n]
	return a.health[off : off+n : off+n]
}

func (a *Arena) grabOcc(n int) [][2]uint64 {
	if a == nil || len(a.occ)+n > cap(a.occ) {
		return make([][2]uint64, n)
	}
	off := len(a.occ)
	a.occ = a.occ[:off+n]
	return a.occ[off : off+n : off+n]
}

func (a *Arena) grabPortStats(n int) []PortStats {
	if a == nil || len(a.pstats)+n > cap(a.pstats) {
		return make([]PortStats, n)
	}
	off := len(a.pstats)
	a.pstats = a.pstats[:off+n]
	return a.pstats[off : off+n : off+n]
}

// grabReqs carves a zero-length request-node slab with capacity n; the
// router appends nodes into it as its working set grows, recycling them
// through its free list thereafter.
func (a *Arena) grabReqs(n int) []reqNode {
	if a == nil || len(a.reqs)+n > cap(a.reqs) {
		return make([]reqNode, 0, n)
	}
	off := len(a.reqs)
	a.reqs = a.reqs[:off+n]
	return a.reqs[off : off : off+n]
}
