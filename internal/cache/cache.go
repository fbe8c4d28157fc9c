// Package cache implements shared cache levels (L2/L3) as McPAT models
// them: a banked set-associative data+tag array, miss-status holding
// registers, write-back buffers, and an optional coherence directory for
// multicore chips.
package cache

import (
	"fmt"

	"mcpat/internal/array"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// Config describes one shared cache level.
type Config struct {
	Name string

	Tech    *tech.Node
	Dev     tech.DeviceType
	CellDev tech.DeviceType // cell device class (see CellHP)
	// CellHP forces high-performance cells. By default, caches of 1MB
	// and larger use LSTP cells (sleep-capable low-leakage arrays, the
	// standard practice for large last-level caches) while periphery
	// stays on the chip's device class.
	CellHP bool
	// EDRAM builds the data array from 1T1C embedded-DRAM cells (denser,
	// slower, refresh-powered) - the large-LLC option of late McPAT
	// versions.
	EDRAM       bool
	LongChannel bool

	Bytes      int
	BlockBytes int
	Assoc      int
	Banks      int
	Ports      int // RW ports per bank

	MSHRs    int // 0 selects 16
	WBDepth  int // write-back buffer entries; 0 selects 16
	TargetHz float64

	// Directory adds a coherence directory sized for the given number of
	// sharers (presence-bit vector per block).
	Directory bool
	Sharers   int
}

// Cache is a synthesized shared cache level.
type Cache struct {
	power.PAT

	Data      *array.Result
	MSHR      *array.Result
	WBBuffer  *array.Result
	Directory *array.Result // nil unless configured

	cfg Config
}

// applyDefaults validates the configuration and fills every defaulted
// field in place, leaving cfg in the exact form the synthesis reads. It
// is idempotent; Synthesize relies on it for canonical cache keys.
func (cfg *Config) applyDefaults() error {
	if cfg.Tech == nil {
		return fmt.Errorf("cache %q: technology node required", cfg.Name)
	}
	if cfg.Bytes <= 0 {
		return fmt.Errorf("cache %q: capacity required", cfg.Name)
	}
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = 64
	}
	if cfg.Assoc <= 0 {
		cfg.Assoc = 8
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 16
	}
	if cfg.WBDepth <= 0 {
		cfg.WBDepth = 16
	}
	if cfg.CellDev == tech.HP && !cfg.CellHP && cfg.Bytes >= 1024*1024 {
		cfg.CellDev = tech.LSTP
	}
	if cfg.Directory && cfg.Sharers <= 0 {
		cfg.Sharers = 8
	}
	return nil
}

// New synthesizes the cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	target := 0.0
	if cfg.TargetHz > 0 {
		// Shared caches are typically pipelined over 2+ cycles; require
		// the bank cycle time to keep up with every-other-cycle access.
		target = 2 / cfg.TargetHz
	}
	cellKind := array.SRAM
	if cfg.EDRAM {
		cellKind = array.EDRAM
	}

	c := &Cache{cfg: cfg}
	var err error
	// Shared caches carry SEC-DED ECC: 8 check bits per 64 data bits.
	eccBits := cfg.BlockBytes * 8 * 9 / 8
	if c.Data, err = array.New(array.Config{
		Name: cfg.Name, Tech: cfg.Tech, Periph: cfg.Dev, Cell: cfg.CellDev,
		LongChannel: cfg.LongChannel, CellKind: cellKind,
		Bytes: cfg.Bytes * 9 / 8, BlockBits: eccBits,
		Assoc: cfg.Assoc, Banks: cfg.Banks, RWPorts: cfg.Ports,
		TargetCycle: target,
	}); err != nil {
		return nil, err
	}
	if c.MSHR, err = array.New(array.Config{
		Name: cfg.Name + ".mshr", Tech: cfg.Tech, Periph: cfg.Dev, Cell: cfg.Dev,
		LongChannel: cfg.LongChannel,
		Entries:     cfg.MSHRs, EntryBits: 42,
		CellKind: array.CAM, SearchPorts: 1, RWPorts: 1,
	}); err != nil {
		return nil, err
	}
	if c.WBBuffer, err = array.New(array.Config{
		Name: cfg.Name + ".wb", Tech: cfg.Tech, Periph: cfg.Dev, Cell: cfg.Dev,
		LongChannel: cfg.LongChannel,
		Entries:     cfg.WBDepth, EntryBits: cfg.BlockBytes * 8,
		RdPorts: 1, WrPorts: 1,
	}); err != nil {
		return nil, err
	}
	if cfg.Directory {
		sharers := cfg.Sharers
		blocks := cfg.Bytes / cfg.BlockBytes
		if c.Directory, err = array.New(array.Config{
			Name: cfg.Name + ".dir", Tech: cfg.Tech, Periph: cfg.Dev, Cell: cfg.CellDev,
			LongChannel: cfg.LongChannel,
			Entries:     blocks, EntryBits: sharers + 2, // presence vector + state
			Banks: cfg.Banks, RdPorts: 1, WrPorts: 1,
			TargetCycle: target,
		}); err != nil {
			return nil, err
		}
	}

	c.PAT = c.Data.PAT
	c.Energy.Read += c.MSHR.Energy.Search * 1.0 // every access probes MSHRs
	c.Static = c.Static.Add(c.MSHR.Static).Add(c.WBBuffer.Static)
	c.Area += c.MSHR.Area + c.WBBuffer.Area
	if c.Directory != nil {
		c.Energy.Read += c.Directory.Energy.Read
		c.Energy.Write += c.Directory.Energy.Write
		c.Static = c.Static.Add(c.Directory.Static)
		c.Area += c.Directory.Area
	}
	return c, nil
}

// Walk adds the cache's report subtree, rooted at a node named name, to
// b with every leaf's dynamic power at r reads and w writes per second,
// and returns the root's row: run at the peak rates to compile the TDP
// columns and at the runtime rates to score.
func (c *Cache) Walk(b *power.Builder, name string, r, w float64) int {
	const missFrac = 0.05
	b.Open(name)
	b.Leaf("data", &c.Data.PAT, c.Data.Energy.DynamicPower(power.Activity{Reads: r, Writes: w}))
	b.Leaf("mshr", &c.MSHR.PAT, c.MSHR.Energy.DynamicPower(power.Activity{Searches: r + w, Reads: (r + w) * missFrac, Writes: (r + w) * missFrac}))
	b.Leaf("wbbuffer", &c.WBBuffer.PAT, c.WBBuffer.Energy.DynamicPower(power.Activity{Reads: w * 0.5, Writes: w * 0.5}))
	if c.Directory != nil {
		b.Leaf("directory", &c.Directory.PAT, c.Directory.Energy.DynamicPower(power.Activity{Reads: r + w, Writes: (r + w) * 0.2}))
	}
	return b.Close()
}

// AccessTime returns the data-array access latency.
func (c *Cache) AccessTime() float64 { return c.Data.AccessTime }

// Cfg returns the normalized configuration.
func (c *Cache) Cfg() Config { return c.cfg }
