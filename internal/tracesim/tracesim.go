// Package tracesim is a trace-driven multicore cache-hierarchy simulator
// with MSI coherence. It complements the analytical model in package
// perfsim: instead of taking L1/L2 miss rates as workload parameters, it
// *measures* them by running synthetic (deterministically generated)
// address traces through set-associative LRU caches with a directory-based
// MSI protocol, counting hits, misses, write-backs, invalidations, and
// cache-to-cache transfers.
//
// The measured rates convert into a perfsim.Workload (ToWorkload) and the
// absolute event counts into the chip statistics vector (ToStats), closing
// the loop: synthetic program behavior -> real cache mechanics ->
// contention-aware performance -> McPAT power. This is the fidelity rung
// between pure parameters and a full-system simulator like M5.
package tracesim

import (
	"fmt"
	"math/rand"

	"mcpat/internal/perfsim"
)

// TraceConfig describes the synthetic memory behavior of one parallel
// program, in the spirit of a SPLASH-2 kernel: a hot working set that
// mostly hits in L1, a warm set that exercises L2, streaming accesses
// that always miss, and a shared region that generates coherence traffic.
type TraceConfig struct {
	Name string
	Seed int64

	Threads           int
	AccessesPerThread int

	// Instruction mix (fractions of all instructions; the remainder is
	// non-memory work used only for the derived workload descriptor).
	LoadFrac, StoreFrac float64
	BranchFrac          float64
	FPFrac, MulFrac     float64

	// Memory behavior. Fractions are of memory accesses.
	HotSetBytes  int     // per-thread private hot set
	WarmSetBytes int     // per-thread private warm set
	SharedBytes  int     // globally shared region
	SharedFrac   float64 // accesses to the shared region
	WarmFrac     float64 // accesses to the warm set
	StreamFrac   float64 // streaming (non-reusable) accesses

	// SharedWriteFrac is the write probability of shared-region accesses.
	// Most shared data is read-mostly; a high value models producer/
	// consumer ping-pong. Negative selects the overall write ratio.
	SharedWriteFrac float64

	BaseCPI float64 // no-stall CPI for the derived workload
}

func (c *TraceConfig) defaults() error {
	if c.Threads <= 0 {
		return fmt.Errorf("tracesim %q: Threads must be positive", c.Name)
	}
	if c.AccessesPerThread <= 0 {
		c.AccessesPerThread = 200_000
	}
	if c.LoadFrac == 0 && c.StoreFrac == 0 {
		c.LoadFrac, c.StoreFrac = 0.25, 0.12
	}
	if c.HotSetBytes <= 0 {
		c.HotSetBytes = 16 << 10
	}
	if c.WarmSetBytes <= 0 {
		c.WarmSetBytes = 512 << 10
	}
	if c.SharedBytes <= 0 {
		c.SharedBytes = 256 << 10
	}
	if c.BaseCPI <= 0 {
		c.BaseCPI = 1.1
	}
	if c.SharedWriteFrac == 0 {
		c.SharedWriteFrac = 0.08 // read-mostly sharing by default
	}
	frac := c.SharedFrac + c.WarmFrac + c.StreamFrac
	if frac > 1 {
		return fmt.Errorf("tracesim %q: access fractions sum to %.2f > 1", c.Name, frac)
	}
	if c.WarmSetBytes+c.HotSetBytes > 0x400000 {
		return fmt.Errorf("tracesim %q: per-thread sets (%d bytes) exceed the 4MB thread stride", c.Name, c.WarmSetBytes+c.HotSetBytes)
	}
	return nil
}

// Access is one memory reference of the trace.
type Access struct {
	Thread int
	Addr   uint64
	Write  bool
}

// Hierarchy describes the simulated cache hierarchy.
type Hierarchy struct {
	L1Bytes, L1Assoc, BlockBytes int
	L2Bytes, L2Assoc             int
	L2Banks                      int // addresses interleave across banks
	Cores                        int // one private L1 per core
	ThreadsPerCore               int // threads map round-robin to cores
}

func (h *Hierarchy) defaults() error {
	if h.Cores <= 0 {
		return fmt.Errorf("tracesim: Cores must be positive")
	}
	if h.ThreadsPerCore <= 0 {
		h.ThreadsPerCore = 1
	}
	if h.BlockBytes <= 0 {
		h.BlockBytes = 64
	}
	if h.L1Bytes <= 0 {
		h.L1Bytes = 32 << 10
	}
	if h.L1Assoc <= 0 {
		h.L1Assoc = 4
	}
	if h.L2Bytes <= 0 {
		h.L2Bytes = 4 << 20
	}
	if h.L2Assoc <= 0 {
		h.L2Assoc = 8
	}
	if h.L2Banks <= 0 {
		h.L2Banks = 1
	}
	return nil
}

// Result carries the measured statistics.
type Result struct {
	Config    TraceConfig
	Hierarchy Hierarchy

	Accesses uint64 // memory accesses simulated
	L1Hits   uint64
	L1Misses uint64
	L2Hits   uint64
	L2Misses uint64 // go to memory

	WriteBacks        uint64 // dirty L1 evictions
	Invalidations     uint64 // MSI invalidates of remote copies (coherence)
	BackInvalidations uint64 // inclusion victims: L2 eviction clears L1 copies
	C2CTransfers      uint64 // cache-to-cache (remote M) transfers
	UpgradeMisses     uint64 // S->M upgrades (permission misses)

	L1MissRate float64 // per access
	L2MissRate float64 // per L2 access
	ShareRate  float64 // coherence events per L2 access
}

// coherence states.
const (
	invalid = iota
	shared
	modified
)

// line is one cache line in an L1.
type line struct {
	tag   uint64
	state uint8
	lru   uint32
}

// l2line tracks the L2 copy plus its directory (sharer bit-vector).
type l2line struct {
	tag     uint64
	valid   bool
	dirty   bool
	sharers uint64 // bit per core; ownerM marks a modified owner
	ownerM  int8   // core holding the line Modified, -1 if none
	lru     uint32
}

// Simulate runs the trace through the hierarchy.
func Simulate(h Hierarchy, tc TraceConfig) (*Result, error) {
	if err := h.defaults(); err != nil {
		return nil, err
	}
	if err := tc.defaults(); err != nil {
		return nil, err
	}
	if h.Cores > 64 {
		return nil, fmt.Errorf("tracesim: directory bit-vector supports up to 64 cores, got %d", h.Cores)
	}

	block := uint64(h.BlockBytes)
	l1Sets := uint64(h.L1Bytes / (h.L1Assoc * h.BlockBytes))
	l2Sets := uint64(h.L2Bytes / (h.L2Assoc * h.BlockBytes))
	if l1Sets == 0 || l2Sets == 0 {
		return nil, fmt.Errorf("tracesim: cache too small for its associativity")
	}

	// l1[core][set][way], l2[set][way].
	l1 := make([][][]line, h.Cores)
	for c := range l1 {
		sets := make([][]line, l1Sets)
		for s := range sets {
			sets[s] = make([]line, h.L1Assoc)
		}
		l1[c] = sets
	}
	l2 := make([][]l2line, l2Sets)
	for s := range l2 {
		ways := make([]l2line, h.L2Assoc)
		for w := range ways {
			ways[w].ownerM = -1
		}
		l2[s] = ways
	}

	res := &Result{Config: tc, Hierarchy: h}
	var clock uint32

	findL1 := func(core int, blk uint64) *line {
		set := l1[core][blk%l1Sets]
		for i := range set {
			if set[i].state != invalid && set[i].tag == blk {
				return &set[i]
			}
		}
		return nil
	}
	victimL1 := func(core int, blk uint64) *line {
		set := l1[core][blk%l1Sets]
		v := &set[0]
		for i := range set {
			if set[i].state == invalid {
				return &set[i]
			}
			if set[i].lru < v.lru {
				v = &set[i]
			}
		}
		return v
	}
	findL2 := func(blk uint64) *l2line {
		set := l2[blk%l2Sets]
		for i := range set {
			if set[i].valid && set[i].tag == blk {
				return &set[i]
			}
		}
		return nil
	}
	victimL2 := func(blk uint64) *l2line {
		set := l2[blk%l2Sets]
		v := &set[0]
		for i := range set {
			if !set[i].valid {
				return &set[i]
			}
			if set[i].lru < v.lru {
				v = &set[i]
			}
		}
		return v
	}
	// invalidateL1 removes blk from every L1 named in the sharer vector
	// except keep. Coherence invalidations (a writer exists: keep >= 0)
	// and inclusion back-invalidations (L2 eviction: keep < 0) are
	// counted separately.
	invalidateL1 := func(le *l2line, blk uint64, keep int) {
		for c := 0; c < h.Cores; c++ {
			if c == keep || le.sharers&(1<<uint(c)) == 0 {
				continue
			}
			if ln := findL1(c, blk); ln != nil {
				if ln.state == modified {
					le.dirty = true
					res.WriteBacks++
				}
				ln.state = invalid
				if keep >= 0 {
					res.Invalidations++
				} else {
					res.BackInvalidations++
				}
			}
		}
		le.sharers = 0
		if keep >= 0 {
			le.sharers = 1 << uint(keep)
		}
		le.ownerM = -1
	}

	access := func(core int, addr uint64, write bool) {
		clock++
		blk := addr / block
		res.Accesses++

		if ln := findL1(core, blk); ln != nil {
			if !write || ln.state == modified {
				ln.lru = clock
				res.L1Hits++
				return
			}
			// Write to a Shared line: upgrade miss - invalidate peers.
			res.UpgradeMisses++
			le := findL2(blk)
			if le != nil {
				invalidateL1(le, blk, core)
				le.ownerM = int8(core)
			}
			ln.state = modified
			ln.lru = clock
			res.L1Hits++ // data was present; only permission was missing
			return
		}

		// L1 miss.
		res.L1Misses++
		le := findL2(blk)
		if le == nil {
			// L2 miss: fetch from memory, possibly evicting.
			res.L2Misses++
			v := victimL2(blk)
			if v.valid {
				invalidateL1(v, v.tag, -1) // inclusive L2: back-invalidate
				if v.dirty {
					res.WriteBacks++
				}
			}
			*v = l2line{tag: blk, valid: true, lru: clock, ownerM: -1}
			le = v
		} else {
			res.L2Hits++
			if le.ownerM >= 0 && int(le.ownerM) != core {
				// Remote Modified: cache-to-cache transfer + downgrade.
				res.C2CTransfers++
				if owner := findL1(int(le.ownerM), blk); owner != nil {
					owner.state = shared
				}
				le.dirty = true
				le.ownerM = -1
			}
		}
		le.lru = clock

		// Install in L1.
		v := victimL1(core, blk)
		if v.state == modified {
			res.WriteBacks++
			if old := findL2(v.tag); old != nil {
				old.dirty = true
				old.sharers &^= 1 << uint(core)
			}
		} else if v.state == shared {
			if old := findL2(v.tag); old != nil {
				old.sharers &^= 1 << uint(core)
			}
		}
		st := uint8(shared)
		if write {
			invalidateL1(le, blk, core)
			le.ownerM = int8(core)
			st = modified
		} else {
			le.sharers |= 1 << uint(core)
		}
		*v = line{tag: blk, state: st, lru: clock}
	}

	// --- Drive the generated trace --------------------------------------
	rng := rand.New(rand.NewSource(tc.Seed))
	memFrac := tc.LoadFrac + tc.StoreFrac
	writeProb := tc.StoreFrac / memFrac

	const (
		privateBase = 0x1000_0000
		sharedBase  = 0x8000_0000
		streamBase  = 0xC000_0000
		// threadStride separates per-thread private regions. It is NOT a
		// power of two: a 2^k stride would alias every thread's region
		// onto the same L2 sets (stride % sets == 0) and manufacture
		// conflict thrashing that real heaps do not exhibit.
		threadStride = 0x413000
	)
	streamPtr := make([]uint64, tc.Threads)

	// Warm and shared accesses exhibit phased locality, like blocked
	// kernels: most references land in a window that slides through the
	// set, so reuse distance is short within a phase but the full set
	// still cycles through the caches.
	const (
		windowBytes = 4 << 10
		phaseLen    = 2000 // accesses per window position
	)
	warmWindows := max(tc.WarmSetBytes/windowBytes, 1)
	sharedWindows := max(tc.SharedBytes/windowBytes, 1)

	for i := 0; i < tc.AccessesPerThread; i++ {
		phase := i / phaseLen
		for t := 0; t < tc.Threads; t++ {
			core := t % h.Cores
			r := rng.Float64()
			var addr uint64
			isShared := false
			switch {
			case r < tc.SharedFrac:
				// All threads walk the shared region in the same phase
				// order, maximizing constructive sharing (and conflict).
				isShared = true
				win := uint64(phase%sharedWindows) * windowBytes
				addr = sharedBase + win + uint64(rng.Intn(windowBytes))
			case r < tc.SharedFrac+tc.StreamFrac:
				addr = streamBase + uint64(t)<<28 + streamPtr[t]
				streamPtr[t] += block
			case r < tc.SharedFrac+tc.StreamFrac+tc.WarmFrac:
				win := uint64((phase+t)%warmWindows) * windowBytes
				addr = privateBase + uint64(t)*threadStride + win + uint64(rng.Intn(windowBytes))
			default:
				addr = privateBase + uint64(t)*threadStride + uint64(rng.Intn(tc.HotSetBytes))
			}
			wp := writeProb
			if isShared {
				wp = tc.SharedWriteFrac
				if wp < 0 {
					wp = writeProb
				}
			}
			write := rng.Float64() < wp
			access(core, addr, write)
		}
	}

	if res.Accesses > 0 {
		res.L1MissRate = float64(res.L1Misses) / float64(res.Accesses)
	}
	l2Acc := res.L2Hits + res.L2Misses
	if l2Acc > 0 {
		res.L2MissRate = float64(res.L2Misses) / float64(l2Acc)
		res.ShareRate = float64(res.Invalidations+res.C2CTransfers) / float64(l2Acc)
	}
	return res, nil
}

// ToWorkload converts measured rates into the analytical performance
// model's workload descriptor, replacing its assumed miss parameters with
// simulated ones.
func (r *Result) ToWorkload(instructions float64) perfsim.Workload {
	tc := r.Config
	share := r.ShareRate
	if share > 1 {
		share = 1
	}
	return perfsim.Workload{
		Name:         tc.Name + "(traced)",
		Instructions: instructions,
		LoadFrac:     tc.LoadFrac,
		StoreFrac:    tc.StoreFrac,
		BranchFrac:   tc.BranchFrac,
		FPFrac:       tc.FPFrac,
		MulFrac:      tc.MulFrac,
		L1IMissRate:  0.002, // instruction side not traced; typical value
		L1DMissRate:  r.L1MissRate,
		L2MissRate:   r.L2MissRate,
		SharingFrac:  share,
		BaseCPI:      tc.BaseCPI,
	}
}
