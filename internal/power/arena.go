package power

// Arena is a bump allocator for report Items, built for callers that
// build report trees over and over and keep only numbers from them: the
// time-series trace engine scores one report tree per statistics
// interval, and each DSE evaluator builds a candidate's TDP tree and
// runtime trees, resetting its arena per candidate. A Score pass
// allocates a few hundred Items and child slices; with an arena those
// come from reusable chunks instead of the heap, so a long trace or
// sweep produces near-zero report garbage after its first pass.
//
// Lifetime contract: every Item and Children slice handed out by an
// arena is valid only until the next Reset. Callers must extract the
// numbers they need (or Clone the tree) before resetting. The zero
// Arena is ready to use; a nil *Arena falls back to ordinary heap
// allocation, so one code path serves both the arena-backed trace loop
// and the regular heap-backed Report — which is what keeps the two
// bit-identical by construction.
//
// An Arena is not safe for concurrent use.
type Arena struct {
	chunks [][]Item // item slabs, each of length arenaItemChunk
	ci, iu int      // current chunk index and items used within it

	pchunks [][]*Item // pointer slabs backing Children slices
	pi, pu  int       // current pointer chunk index and slots used
}

const (
	arenaItemChunk = 256
	arenaPtrChunk  = 1024
)

// Reset makes every previously allocated Item and Children slice
// available for reuse. Retained chunks keep their capacity, so a
// steady-state caller stops allocating entirely.
func (a *Arena) Reset() {
	a.ci, a.iu, a.pi, a.pu = 0, 0, 0, 0
}

// alloc returns one zeroed Item from the slab.
func (a *Arena) alloc() *Item {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Item, arenaItemChunk))
	}
	it := &a.chunks[a.ci][a.iu]
	a.iu++
	if a.iu == arenaItemChunk {
		a.ci++
		a.iu = 0
	}
	*it = Item{}
	return it
}

// children returns a zero-length slice with capacity n backed by the
// pointer slab. Appending beyond n safely spills to the heap (append
// reallocates), so a builder that underestimates its fan-out stays
// correct — it just loses the reuse for that one slice.
func (a *Arena) children(n int) []*Item {
	if n <= 0 {
		return nil
	}
	if n > arenaPtrChunk {
		return make([]*Item, 0, n)
	}
	if a.pi < len(a.pchunks) && a.pu+n > arenaPtrChunk {
		a.pi++
		a.pu = 0
	}
	if a.pi == len(a.pchunks) {
		a.pchunks = append(a.pchunks, make([]*Item, arenaPtrChunk))
	}
	s := a.pchunks[a.pi][a.pu : a.pu : a.pu+n]
	a.pu += n
	return s
}

// NewItem returns a named, empty report node from the arena; a nil
// receiver allocates on the heap exactly like the package-level NewItem.
func (a *Arena) NewItem(name string) *Item {
	if a == nil {
		return NewItem(name)
	}
	it := a.alloc()
	it.Name = name
	return it
}

// NewItemN returns a named report node with capacity for n children,
// the arena counterpart of the package-level NewItemN.
func (a *Arena) NewItemN(name string, n int) *Item {
	if a == nil {
		return NewItemN(name, n)
	}
	it := a.alloc()
	it.Name = name
	it.Children = a.children(n)
	return it
}

// FromPAT converts a component model result into a leaf report item,
// the arena counterpart of the package-level FromPAT.
func (a *Arena) FromPAT(name string, p PAT, peak, runtime Activity) *Item {
	if a == nil {
		return FromPAT(name, p, peak, runtime)
	}
	it := a.alloc()
	it.Name = name
	it.Area = p.Area
	it.PeakDynamic = p.Energy.DynamicPower(peak)
	it.RuntimeDynamic = p.Energy.DynamicPower(runtime)
	it.SubLeak = p.Static.Sub
	it.GateLeak = p.Static.Gate
	return it
}
